"""Each command imports only the modules it runs.

Every command starts a fresh interpreter, so a module it loads but does not
run costs the compilation of its source and the creation of its classes on
every call.  Each case runs the command in a subprocess and reads the
modules loaded once main has returned.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import solis
from conftest import DATA

SRC = Path(solis.__file__).resolve().parent.parent

PROBE = """
import json, sys
from solis.cli import main
code = main(sys.argv[1:])
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""


def loaded(*argv: str) -> set[str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", PROBE, *argv], env=env, capture_output=True, text=True, check=True
    )
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["code"] == 0, done.stderr
    return set(result["modules"])


def solis_modules(*names: str) -> set[str]:
    return {f"solis.{name}" for name in names}


@pytest.fixture(scope="module")
def numpy_modules() -> set[str]:
    """The modules a bare import of numpy loads."""
    probe = "import json, sys, numpy; print(json.dumps(sorted(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    )
    return set(json.loads(done.stdout))


@pytest.fixture
def decimal_system(tmp_path):
    path = tmp_path / "decimal.sys"
    path.write_text(
        "axiom: AAA\n"
        "rule: A -> ABA p=0.25\n"
        "rule: A -> B p=0.5\n"
        "rule: A -> AC p=0.25\n"
        "rule: B -> B p=1\n"
        "rule: C -> C p=1\n"
    )
    return path


def test_prob_runs_the_lattice_alone(decimal_system):
    modules = loaded("prob", str(DATA / "example1.seq"), "--system", str(decimal_system))
    assert "solis.lattice" in modules
    skipped = solis_modules(
        "derivations", "free_system", "optimal_system", "optimal_derivation", "sampler",
    ) | {"fractions"}
    assert not modules & skipped


def test_prob_reads_plain_fractions_without_fractions():
    """long.sys writes every probability as p=1/2."""
    modules = loaded(
        "prob", str(DATA / "long-seed0.seq"), "--system", str(DATA / "long.sys")
    )
    assert "solis.lattice" in modules
    assert not modules & {"fractions", "decimal"}


def test_infer_system_lists_no_derivations():
    modules = loaded("infer-system", str(DATA / "aa-aba.seq"), "--restarts", "2")
    assert "solis.optimal_system" in modules
    skipped = solis_modules(
        "derivations", "optimal_derivation", "sampler"
    ) | {"fractions"}
    assert not modules & skipped


def test_infer_derivation_runs_no_solver():
    modules = loaded("infer-derivation", str(DATA / "aa-aba.seq"))
    assert "solis.optimal_derivation" in modules
    assert not modules & solis_modules("optimal_system", "sampler")


@pytest.mark.parametrize(
    "argv",
    [
        ("infer-system", str(DATA / "aa-aba.seq"), "--restarts", "2"),
        ("infer-derivation", str(DATA / "aa-aba.seq")),
        ("enumerate", str(DATA / "aa-aba.seq")),
    ],
    ids=lambda argv: argv[0],
)
def test_answers_run_on_the_free_lattice_alone(argv):
    """The answers read the free productions off the free lattice, so no
    command but free loads the free system's module."""
    assert "solis.free_system" not in loaded(*argv)


def test_free_loads_the_free_system():
    assert "solis.free_system" in loaded("free", str(DATA / "aa-aba.seq"))


@pytest.mark.parametrize(
    "argv",
    [
        ("prob", str(DATA / "long-seed0.seq"), "--system", str(DATA / "long.sys")),
        ("free", str(DATA / "aa-aba.seq")),
        ("enumerate", str(DATA / "aa-aba.seq")),
        ("infer-derivation", str(DATA / "aa-aba.seq")),
    ],
    ids=lambda argv: argv[0],
)
def test_commands_load_neither_dataclasses_nor_openssl(argv, numpy_modules):
    """The records are NamedTuples, and file_digest hashes with the
    interpreter's own sha256, not hashlib, whose import loads OpenSSL.
    numpy before 2.0 imports numpy.random, and with it hashlib (through
    secrets and hmac), on import numpy; so solis must add no OpenSSL beyond
    what a bare import of numpy loads.  Nor numpy.ma, which numpy 2 loads
    on the first np.unique call without return_index or return_inverse."""
    modules = loaded(*argv)
    assert "dataclasses" not in modules
    assert not (modules - numpy_modules) & {"hashlib", "_hashlib", "numpy.ma"}


@pytest.mark.parametrize(
    "argv",
    [
        ("infer-system", str(DATA / "aa-aba.seq"), "--restarts", "2"),
        ("sample", "--system", str(DATA / "g1.sys"), "--steps", "2"),
    ],
    ids=lambda argv: argv[0],
)
def test_random_commands_load_no_dataclasses(argv, numpy_modules):
    """These commands draw from numpy.random.default_rng, and importing
    numpy.random imports hashlib (through secrets and hmac), so they load
    OpenSSL whatever solis imports; dataclasses they need not load, nor
    numpy.ma beyond what a bare import of numpy loads."""
    modules = loaded(*argv)
    assert "numpy.random" in modules
    assert "dataclasses" not in modules
    assert "numpy.ma" not in modules - numpy_modules


def test_importing_the_cli_loads_no_numpy():
    """run turns the collector off before main imports numpy, so the
    command line module itself must not import it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = "import sys, solis.cli; print('numpy' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout == "False\n"
