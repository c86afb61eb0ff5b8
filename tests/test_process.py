"""The `solis` process: `python -m solis.cli` and the installed script run
`solis.cli.run`, which turns the cyclic garbage collector off and ends the
process without interpreter teardown.

Each case runs a fresh interpreter with block-buffered standard output, as
when it is redirected to a file, and compares it with `main` in process.
"""

import gc
import os
import subprocess
import sys
from pathlib import Path

import pytest

import solis
from conftest import DATA
from solis.cli import main

ROOT = DATA.parent.parent
SRC = Path(solis.__file__).resolve().parent.parent
ENV = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"} | {"PYTHONPATH": str(SRC)}

LONG = ["tests/data/long-seed0.seq", "--system", "tests/data/long.sys"]

#: calls run on the command line after its first argument, under the hook
#: that argument names ("none" for no hook); the exit hook prints "teardown"
#: only if the interpreter tears down
PROBE = """
import atexit, sys
if sys.argv[1] != "none":
    getattr(sys, sys.argv[1])(lambda *args: None)
atexit.register(print, "teardown", file=sys.stderr)
del sys.argv[1]
from solis.cli import run
run()
"""


def spawn(args: list[str], stdout) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=ENV, stdout=stdout, stderr=subprocess.PIPE,
        text=True, timeout=60,
    )


def untimed(err: str) -> list[str]:
    return [line for line in err.splitlines() if not line.startswith("time_ms: ")]


@pytest.mark.parametrize(
    "argv, code",
    [
        (["prob", *LONG], 0),
        (["infer-system", "tests/data/long-seed0.seq", "--restarts", "0"], 1),
        (["enumerate", "tests/data/long-seed0.seq", "--system", "tests/data/g1.sys"], 2),
        (["enumerate", "tests/data/growth-seed0.seq"], 3),
    ],
    ids=["exit-0", "exit-1", "exit-2", "exit-3"],
)
def test_process_matches_main(argv, code, tmp_path, capsys, monkeypatch):
    with open(tmp_path / "out", "w") as stdout:
        done = spawn(["-m", "solis.cli", *argv], stdout)
    monkeypatch.chdir(ROOT)
    assert main(argv) == code
    captured = capsys.readouterr()
    assert done.returncode == code
    assert (tmp_path / "out").read_text() == captured.out
    assert untimed(done.stderr) == untimed(captured.err)


def test_a_solver_arithmetic_error_exits_3_without_a_traceback():
    """One step between two random 110-symbol AB words at the default
    config: the first update's expected counts miss a block's occurrences."""
    done = spawn(["-m", "solis.cli", "infer-system", "tests/data/step110.seq"], subprocess.PIPE)
    assert (done.returncode, done.stdout) == (3, "")
    assert "Traceback" not in done.stderr
    (line,) = untimed(done.stderr)
    assert line.startswith("error: ArithmeticError: iteration 1, restart ")


def _closed_pipe():
    read, write = os.pipe()
    os.close(read)
    return write


@pytest.mark.parametrize(
    "open_stdout, error",
    [
        pytest.param(
            lambda: os.open("/dev/full", os.O_WRONLY), "error: OSError: [Errno 28] ",
            marks=pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full"),
            id="dev-full",
        ),
        pytest.param(_closed_pipe, "error: BrokenPipeError: [Errno 32] ", id="closed-pipe"),
    ],
)
@pytest.mark.parametrize("hook", ["none", "settrace"])
def test_output_failure_exits_1(open_stdout, error, hook):
    """A failed write or flush of stdout is an error line and exit 1, not a
    traceback or the interpreter's exit code 120, with or without teardown,
    and the timing line is still written.  prob's answer fails at the flush
    in run; free's 34,624 bytes pass the stdout buffer, so its write fails
    inside main."""
    for argv in (["prob", *LONG], ["free", "tests/data/growth-seed0.seq"]):
        stdout = open_stdout()
        try:
            entry = ["-m", "solis.cli"] if hook == "none" else ["-c", PROBE, hook]
            done = spawn([*entry, *argv], stdout)
        finally:
            os.close(stdout)
        assert done.returncode == 1
        lines = done.stderr.splitlines()
        if hook != "none":
            assert lines.pop() == "teardown"
        assert sum(line.startswith("time_ms: ") for line in lines) == 1
        [line] = untimed("\n".join(lines))
        assert line.startswith(error)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("hook", ["none", "settrace"])
def test_stderr_failure_keeps_the_answer(hook, tmp_path):
    """A failed write of the timing line to stderr is exit 1, and stdout
    still holds the whole answer, with or without teardown."""
    stderr = os.open("/dev/full", os.O_WRONLY)
    try:
        entry = ["-m", "solis.cli"] if hook == "none" else ["-c", PROBE, hook]
        with open(tmp_path / "out", "w") as stdout:
            done = subprocess.run(
                [sys.executable, *entry, "prob", *LONG], cwd=ROOT, env=ENV, stdout=stdout,
                stderr=stderr, timeout=60,
            )
    finally:
        os.close(stderr)
    assert done.returncode == 1
    assert (tmp_path / "out").read_text() == (DATA / "long-seed0.prob.out").read_text()


def test_profiler_writes_its_report(tmp_path):
    """cProfile prints its table at exit, after the command's output."""
    with open(tmp_path / "out", "w") as stdout:
        done = spawn(["-m", "cProfile", "-m", "solis.cli", "prob", *LONG], stdout)
    assert done.returncode == 0, done.stderr
    out = (tmp_path / "out").read_text()
    recorded = (DATA / "long-seed0.prob.out").read_text()
    assert out.startswith(recorded)
    assert "function calls" in out[len(recorded) :]


@pytest.mark.parametrize("hook, teardown", [("none", False), ("settrace", True), ("setprofile", True)])
def test_teardown_only_under_a_tracer_or_profiler(hook, teardown, tmp_path):
    with open(tmp_path / "out", "w") as stdout:
        done = spawn(["-c", PROBE, hook, "prob", *LONG], stdout)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "out").read_text() == (DATA / "long-seed0.prob.out").read_text()
    assert ("teardown" in untimed(done.stderr)) == teardown


def test_run_turns_the_collector_off():
    probe = "import gc, solis.cli as cli; cli.main = lambda: print(gc.isenabled()) or 0; cli.run()"
    done = spawn(["-c", probe], subprocess.PIPE)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


@pytest.mark.parametrize("enabled", [True, False])
def test_main_keeps_the_callers_collector(enabled, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert main(["prob", *LONG]) == 0
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was else gc.disable)()


#: runs main on the command line's arguments with the collector off, as run
#: does, then prints how many unreachable objects a collection finds
GARBAGE = """
import contextlib, gc, io, sys
gc.disable()
from solis.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, gc.collect())
"""


@pytest.mark.parametrize(
    "small, large",
    [
        (
            ["infer-system", "tests/data/growth-seed0.seq", "--restarts", "2", "--max-iters", "2"],
            ["infer-system", "tests/data/growth-seed0.seq", "--restarts", "2", "--max-iters", "40"],
        ),
        (["enumerate", "tests/data/aa-aba.seq"], ["enumerate", "tests/data/example2.seq"]),
    ],
    ids=["infer-system", "enumerate"],
)
def test_garbage_does_not_grow_with_the_work(small, large):
    """Without the collector, cycles made while a command runs would stay in
    memory until the process ends.  A command that does more work leaves no
    more of them: what a collection finds is the fixed garbage of importing
    the command's modules."""
    found = []
    for argv in (small, large):
        done = spawn(["-c", GARBAGE, *argv], subprocess.PIPE)
        assert done.returncode == 0, done.stderr
        code, garbage = done.stdout.split()
        assert code == "0"
        found.append(int(garbage))
    assert found[0] == found[1]
