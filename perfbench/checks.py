"""Answer checks: each returns (passed, reason, log value) for one CLI stdout.

A failed check is a failed operation; the benchmark counts it against the
operations attempted and leaves its wall time out of the answer timings.
"""

from __future__ import annotations

import math
from collections import Counter
from pathlib import Path

REL_TOL = 1e-9


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


def _value(lines: list[str], key: str) -> float:
    for line in lines:
        if line.startswith(key + " = "):
            return float(line[len(key) + 3 :])
    raise ValueError(f"no '{key} =' line")


def check_prob(stdout: str, inputs) -> tuple[bool, str, float]:
    """Printed log p equals the library's sequence_probability log."""
    from solis import sequence_probability

    printed = _value(stdout.splitlines(), "log p(theta)")
    expected = sequence_probability(inputs.generator, inputs.record.sequence).log
    if not _close(printed, expected):
        return False, f"log p {printed} != library {expected}", printed
    return True, "", printed


def check_infer_system(stdout: str, inputs, directory: Path) -> tuple[bool, str, float]:
    """The printed system reparses, scores its printed log value, and scores
    at least as high as the system that generated the trace."""
    from solis import parse_system_file, sequence_probability

    lines = stdout.splitlines()
    printed = _value(lines, "log value")
    start = next((i for i, line in enumerate(lines) if line.startswith("axiom:")), None)
    if start is None:
        return False, "no system in the output", printed
    path = directory / "inferred.sys"
    path.write_text("\n".join(lines[start:]) + "\n", encoding="utf-8")
    theta = inputs.record.sequence
    rescored = sequence_probability(parse_system_file(str(path)), theta).log
    if not _close(rescored, printed):
        return False, f"printed log value {printed} != rescored {rescored}", printed
    generator = sequence_probability(inputs.generator, theta).log
    if rescored < generator:
        return False, f"log p {rescored} below the generator's {generator}", printed
    return True, "", printed


def check_infer_derivation(stdout: str, inputs) -> tuple[bool, str, float]:
    """The printed log value is the bound of the printed derivation's counts,
    and no lower than the bound of the sampled derivation."""
    from solis import Production, count_productions, derivation_bound, parse_word

    lines = stdout.splitlines()
    printed = _value(lines, "log value")
    theta = inputs.record.sequence
    steps = [line.split(": ", 1)[1] for line in lines if line.startswith("  step ")]
    if len(steps) != theta.step_count:
        return False, f"{len(steps)} derivation steps, trace has {theta.step_count}", printed
    counts: Counter = Counter()
    for (x, y), text in zip(theta.steps(), steps):
        parts = [parse_word(part) for part in text.split(" | ")]
        if len(parts) != len(x) or tuple(s for part in parts for s in part) != y:
            return False, f"derivation step {text!r} does not rewrite its words", printed
        counts.update(Production(a, part) for a, part in zip(x, parts))
    bound = derivation_bound(theta, counts).log
    if not _close(bound, printed):
        return False, f"printed log value {printed} != bound {bound}", printed
    sampled = derivation_bound(theta, count_productions(inputs.record.derivation)).log
    if printed < sampled - REL_TOL * abs(sampled):
        return False, f"bound {printed} below the sampled derivation's {sampled}", printed
    return True, "", printed
