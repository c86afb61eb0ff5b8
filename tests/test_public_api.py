"""The package's public surface: the exported names and the README example.

Test oracles (enumeration, monomial expansion, the closed-form simplex
maximum) live in the modules that define them and are not exported.
"""

import re
from pathlib import Path

import solis

README = Path(__file__).resolve().parent.parent / "README.md"

PUBLIC = [
    "CapExceeded",
    "DEFAULT_DERIVATION_CAP",
    "DEFAULT_EXPANSION_CAP",
    "Derivation",
    "EMPTY_WORD",
    "FormatError",
    "IncompatibleSequence",
    "IncompatibleStep",
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
    "derive_step",
    "enumerate_derivations",
    "file_digest",
    "format_real",
    "infer_optimal_system",
    "maximize",
    "occurrence_counts",
    "parse_sequence_file",
    "parse_system_file",
    "parse_word",
    "probability_gradient",
    "sample_sequence",
    "sequence_probability",
    "serialize_derivation",
    "serialize_partial_system",
    "serialize_system",
    "serialize_word",
    "step_gradients",
    "step_values",
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
    assert len(PUBLIC) == 52
    for name in PUBLIC:
        assert getattr(solis, name) is not None


def test_exports_cover_the_benchmark_and_the_readme():
    assert BENCHMARK_NAMES | README_NAMES <= set(PUBLIC)


def test_oracles_are_not_exported():
    for name in (
        "enumerate_step_assignments",
        "evaluate_monomials",
        "sequence_probability_naive",
        "simplex_product_max",
        "SimplexProductProblem",
    ):
        assert name not in solis.__all__
        assert not hasattr(solis, name)


def test_readme_library_example_prints_its_comments(capsys):
    assert f"from solis import {', '.join(sorted(README_NAMES))}" in readme_example()
    exec(compile(readme_example(), str(README), "exec"), {})
    assert capsys.readouterr().out.split() == ["0.25", "0.5"]
