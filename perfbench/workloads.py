"""Seeded benchmark inputs: a generator system and a trace sampled from it.

Each workload writes two files, the generator system and the sampled
trace, and the solis CLI sees only those.  The same seed always yields the
same files.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

GROWTH_SYSTEM = """\
axiom: A
rule: A -> AB p=1/2
rule: A -> A p=1/2
rule: B -> BA p=1/2
rule: B -> B p=1/2
"""

LONG_SYSTEM = """\
axiom: ABABABABAB
rule: A -> A p=1/2
rule: A -> B p=1/2
rule: B -> A p=1/2
rule: B -> B p=1/2
"""

ENUM_SYSTEM = """\
axiom: AAA
rule: A -> AB p=1/2
rule: A -> BA p=1/2
rule: B -> AA p=1/2
rule: B -> BB p=1/2
"""

#: solver flags of every infer-system child
INFER_FLAGS = ("--restarts", "2", "--max-iters", "20", "--seed", "0")

#: growth traces are stepped until the last word has this many symbols ...
GROWTH_MIN_LENGTH = 30
#: ... and kept only with this many steps and DP edges in this range, so
#: that every seed costs about the same per solver iteration
GROWTH_STEPS = 8
GROWTH_EDGES = (22_000, 23_500)
LONG_STEPS = 120
ENUM_STEPS = 2
#: enum traces are kept only with this many distinct production-count
#: multisets among their derivations; best_derivation keeps one entry per
#: multiset, so this keeps its memory about the same for every seed
ENUM_DISTINCT = (54_000, 60_000)
#: sampler seeds tried per workload seed: seed * CANDIDATES + k
CANDIDATES = 2_000


#: the command that answers each workload's question
ANSWER = {"growth": "infer-system", "long": "infer-system", "enum": "infer-derivation"}


@dataclass(frozen=True)
class Inputs:
    """Generated files plus the library objects the checks need."""

    trace_path: Path
    system_path: Path
    generator: object  # S0LSystem
    record: object  # SampleRecord: trace, sampled derivation
    candidate_seed: int


def make_inputs(name: str, seed: int, directory: Path) -> Inputs:
    """Write the workload's generator and its first acceptable trace."""
    from solis import parse_system_file

    text = {"growth": GROWTH_SYSTEM, "long": LONG_SYSTEM, "enum": ENUM_SYSTEM}[name]
    system_path = directory / "generator.sys"
    system_path.write_text(text, encoding="utf-8")
    generator = parse_system_file(str(system_path))
    for candidate in range(seed * CANDIDATES, (seed + 1) * CANDIDATES):
        record = _sample(name, generator, candidate)
        if _acceptable(name, record.sequence):
            break
    else:
        raise RuntimeError(f"no {name} trace for seed {seed} in {CANDIDATES} candidates")
    trace_path = directory / "trace.seq"
    trace_path.write_text(
        "".join("".join(word) + "\n" for word in record.sequence.words), encoding="utf-8"
    )
    return Inputs(trace_path, system_path, generator, record, candidate)


def _sample(name: str, generator, seed: int):
    from solis import sample_sequence

    if name == "long":
        return sample_sequence(generator, LONG_STEPS, seed)
    if name == "enum":
        return sample_sequence(generator, ENUM_STEPS, seed)
    steps = 1
    record = sample_sequence(generator, steps, seed)
    while len(record.sequence.words[-1]) < GROWTH_MIN_LENGTH:
        steps += 1
        record = sample_sequence(generator, steps, seed)
    return record


def _acceptable(name: str, theta) -> bool:
    from solis import build_free_system

    if name == "growth":
        if theta.step_count != GROWTH_STEPS:
            return False
        return GROWTH_EDGES[0] <= dp_edges(theta, build_free_system(theta)) <= GROWTH_EDGES[1]
    if name == "enum":
        return ENUM_DISTINCT[0] <= distinct_count_multisets(theta) <= ENUM_DISTINCT[1]
    return True


def distinct_count_multisets(theta) -> int:
    """Number of distinct production-count multisets over all derivations.

    A derivation's counts are the sum of its steps' counts, so the steps are
    enumerated one at a time and their count vectors summed.
    """
    import numpy as np

    from solis import Sequence, build_free_system, count_productions, enumerate_derivations

    position = {p: i for i, p in enumerate(build_free_system(theta).productions)}
    totals = np.zeros((1, len(position)), dtype=np.int16)
    for x, y in theta.steps():
        step = Sequence((x, y))
        vectors = []
        for derivation in enumerate_derivations(build_free_system(step), step):
            row = np.zeros(len(position), dtype=np.int16)
            for production, count in count_productions(derivation).items():
                row[position[production]] = count
            vectors.append(row)
        rows = np.unique(np.array(vectors), axis=0)
        totals = np.unique((totals[:, None, :] + rows[None, :, :]).reshape(-1, len(position)), axis=0)
    return len(totals)


def dp_cells(theta) -> int:
    """Sum over steps of (|w_j|+1)(|w_j+1|+1), the DP table sizes."""
    return sum((len(x) + 1) * (len(y) + 1) for x, y in theta.steps())


def dp_edges(theta, free) -> int:
    """Sum over steps of #{(i, s, e): x_i -> y[s:e] is a free production}."""
    successors: dict[str, dict[int, set]] = {}
    for p in free.productions:
        successors.setdefault(p.predecessor, {}).setdefault(len(p.successor), set()).add(
            p.successor
        )
    edges = 0
    for x, y in theta.steps():
        for a in x:
            for length, words in successors.get(a, {}).items():
                edges += sum(y[s : s + length] in words for s in range(len(y) - length + 1))
    return edges
