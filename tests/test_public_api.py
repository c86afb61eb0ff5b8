"""The package's public surface: the exported names, the command line's
help and the README example.

Test oracles (enumeration, monomial expansion, the closed-form simplex
maximum) live in tests/oracles.py, not in the package, so no command's
process compiles them.  Public names load their module on first access.
"""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import solis
from conftest import DATA
from solis.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"

PUBLIC = [
    "CapExceeded",
    "DEFAULT_DERIVATION_CAP",
    "DEFAULT_EXPANSION_CAP",
    "Derivation",
    "FormatError",
    "IncompatibleSequence",
    "LogLinear",
    "MAX_WORD_LENGTH",
    "MissingProduction",
    "Monomial",
    "Partial0LSystem",
    "PosynomialObjective",
    "Production",
    "ProductionCounts",
    "RestartTrace",
    "S0LSystem",
    "SampleRecord",
    "Sequence",
    "SolisError",
    "SolverConfig",
    "StepAssignment",
    "Symbol",
    "Word",
    "WordLengthExceeded",
    "assemble_system",
    "best_derivation",
    "build_free_system",
    "build_objective",
    "count_productions",
    "derivation_bound",
    "derivation_probability",
    "enumerate_derivations",
    "file_digest",
    "format_real",
    "infer_optimal_system",
    "maximize",
    "occurrence_counts",
    "parse_sequence_file",
    "parse_system_file",
    "parse_word",
    "sample_sequence",
    "sequence_probability",
    "serialize_derivation",
    "serialize_partial_system",
    "serialize_system",
    "serialize_word",
]

#: what the benchmark in perfbench/ imports from the package
BENCHMARK_NAMES = {
    "Production",
    "S0LSystem",
    "Sequence",
    "SolisError",
    "build_free_system",
    "build_objective",
    "count_productions",
    "derivation_bound",
    "enumerate_derivations",
    "parse_sequence_file",
    "parse_system_file",
    "parse_word",
    "sample_sequence",
    "sequence_probability",
}

#: what the README library example imports from the package
README_NAMES = {"Sequence", "best_derivation", "infer_optimal_system"}


def readme_example() -> str:
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_exports_are_pinned():
    assert solis.__all__ == PUBLIC
    assert len(PUBLIC) == 46
    for name in PUBLIC:
        assert getattr(solis, name) is not None


def test_exports_are_the_objects_of_their_modules():
    for name in PUBLIC:
        module = importlib.import_module(f"solis.{solis._EXPORTS[name]}")
        assert getattr(solis, name) is getattr(module, name)


def test_dir_lists_the_exports():
    assert set(PUBLIC) <= set(dir(solis))


def test_star_import_binds_every_export():
    namespace = {}
    exec("from solis import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(PUBLIC)
    for name in PUBLIC:
        assert namespace[name] is getattr(solis, name)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        solis.no_such_name


def test_help_of_every_command_is_unchanged(capsys, monkeypatch):
    """cli-help.out holds the help that the command line printed when its
    parser read its defaults from the library, at 80 columns."""
    monkeypatch.setenv("COLUMNS", "80")
    commands = ["free", "enumerate", "prob", "infer-derivation", "infer-system", "sample"]
    printed = []
    for argv in [["--help"]] + [[command, "--help"] for command in commands]:
        assert main(argv) == 0
        printed.append(f"$ solis {' '.join(argv)}\n{capsys.readouterr().out}")
    assert "".join(printed) == (DATA / "cli-help.out").read_text()


def test_exports_cover_the_benchmark_and_the_readme():
    assert BENCHMARK_NAMES | README_NAMES <= set(PUBLIC)


def test_oracles_are_not_exported():
    names = [f"solis.{info.name}" for info in pkgutil.iter_modules(solis.__path__)]
    modules = [solis] + [importlib.import_module(name) for name in names]
    for name in (
        "enumerate_step_assignments",
        "evaluate_monomials",
        "sequence_probability_naive",
        "simplex_product_max",
        "SimplexProductProblem",
    ):
        assert name not in solis.__all__
        for module in modules:
            assert not hasattr(module, name), module.__name__


def test_readme_library_example_prints_its_comments(capsys):
    assert f"from solis import {', '.join(sorted(README_NAMES))}" in readme_example()
    exec(compile(readme_example(), str(README), "exec"), {})
    assert capsys.readouterr().out.split() == ["0.25", "0.5"]
