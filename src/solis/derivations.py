"""Derivations of a word sequence and their probabilities.

A derivation fixes, for every step and every position, the production that
rewrote that position.  Its probability is the product of the chosen
production probabilities; the probability of the whole sequence is the sum
over all of its derivations.  Enumeration of that sum is kept as an oracle;
the default path exploits the fact that choices in different steps are
independent, so the sum factors into one term per step, each computable by
a quadratic dynamic program without materializing any derivation.  That
program runs on the step lattice of the lattice module, compiled once per
trace and weighting.  The same independence groups the derivations by
production-count multiset one step at a time (count_multisets), again
without materializing any derivation.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import groupby, product
from typing import Iterable, Iterator, Mapping

import numpy as np

from .compositions import StepAssignment
from .errors import CapExceeded, IncompatibleSequence
from .lattice import StepLattice, compile_lattice
from .model import LogLinear, Partial0LSystem, Production, S0LSystem, Sequence, Symbol, Word

#: refuse to stream a derivation space larger than this unless told otherwise
DEFAULT_DERIVATION_CAP = 10**7

#: multiset of applied productions over a whole derivation
ProductionCounts = Counter[Production]


@dataclass(frozen=True)
class Derivation:
    """One per-step assignment chain: each step's target is the next source."""

    steps: tuple[StepAssignment, ...]

    def __post_init__(self) -> None:
        for first, second in zip(self.steps, self.steps[1:]):
            if first.target != second.source:
                raise ValueError(
                    f"steps do not chain: {first.target!r} != {second.source!r}"
                )


def enumerate_derivations(
    system: Partial0LSystem,
    theta: Sequence,
    cap: int = DEFAULT_DERIVATION_CAP,
) -> Iterator[Derivation]:
    """Yield every derivation of theta whose productions all lie in system.

    The stream is the Cartesian product of the per-step valid assignments,
    earlier steps most significant, each step in the enumeration order of
    enumerate_step_assignments.  Raises IncompatibleSequence if some step
    admits no valid assignment (1-based step index in the error) and
    CapExceeded if the derivation count exceeds cap; the count carried by
    CapExceeded is a lower bound when a single step already overflows.
    """
    per_step = _per_step_assignments(system, theta, cap)
    return (Derivation(steps=combo) for combo in product(*per_step))


@dataclass(frozen=True, eq=False)
class MultisetTable:
    """The distinct production-count multisets of a trace's derivations.

    Row i of `rows` lists the productions (indices into the system's
    productions) that the derivations of one multiset apply, sorted, one
    column per rewritten position.  Rows are in the order of their earliest
    derivation in enumerate_derivations order; `first[i]` holds that
    derivation's assignment index in each step and `multiplicity[i]` the
    number of derivations with multiset i.
    """

    steps: tuple[tuple[StepAssignment, ...], ...]
    rows: np.ndarray
    first: np.ndarray
    multiplicity: np.ndarray

    def counts(self, i: int) -> tuple[tuple[int, int], ...]:
        """(production index, count) for each production of multiset i."""
        return tuple((k, len(list(run))) for k, run in groupby(self.rows[i].tolist()))

    def derivation(self, i: int) -> Derivation:
        """The earliest derivation with multiset i."""
        return Derivation(
            steps=tuple(step[k] for step, k in zip(self.steps, self.first[i].tolist()))
        )


def count_multisets(
    system: Partial0LSystem,
    theta: Sequence,
    cap: int = DEFAULT_DERIVATION_CAP,
) -> MultisetTable:
    """Group the derivations of enumerate_derivations by count multiset.

    Steps are independent and a derivation's multiset is the sum of its
    steps' multisets, so the table is built one step at a time: every
    distinct multiset so far is paired with every distinct multiset of the
    next step, and the pairs are deduplicated.  No derivation is
    materialized.  Raises as enumerate_derivations does.
    """
    per_step = _per_step_assignments(system, theta, cap)
    index = {(p.predecessor, p.successor): i for i, p in enumerate(system.productions)}
    dtype = np.min_scalar_type(max(len(index) - 1, 0))
    # derivation counts are exact: int64 while their total fits, else Python ints
    fits = math.prod(len(assignments) for assignments in per_step) <= np.iinfo(np.int64).max
    count_dtype = np.int64 if fits else object
    rows = np.zeros((1, 0), dtype=dtype)
    first = np.zeros((1, 0), dtype=np.int64)
    multiplicity = np.ones(1, dtype=count_dtype)
    for assignments in per_step:
        width = len(assignments[0].source)
        encoded = np.array(
            [sorted(index[a, z] for a, z in zip(s.source, s.parts)) for s in assignments],
            dtype=dtype,
        ).reshape(len(assignments), width)
        step_first, step_inverse = _first_unique(encoded)
        step_rows = encoded[step_first]
        step_multiplicity = np.bincount(step_inverse).astype(count_dtype)
        # pairs run in enumeration order of (running row's earliest prefix,
        # step row's earliest assignment), so a multiset's first pair extends
        # its earliest prefix by its earliest assignment
        left = np.repeat(np.arange(len(rows)), len(step_rows))
        right = np.tile(np.arange(len(step_rows)), len(rows))
        pairs = np.sort(np.concatenate([rows[left], step_rows[right]], axis=1), axis=1)
        keep, inverse = _first_unique(pairs)
        rows = pairs[keep]
        first = np.column_stack([first[left[keep]], step_first[right[keep]]])
        merged = np.zeros(len(keep), dtype=count_dtype)
        np.add.at(merged, inverse, multiplicity[left] * step_multiplicity[right])
        multiplicity = merged
    return MultisetTable(
        steps=tuple(tuple(assignments) for assignments in per_step),
        rows=rows,
        first=first,
        multiplicity=multiplicity,
    )


def count_productions(d: Derivation) -> ProductionCounts:
    """Multiset of productions applied across all steps and positions."""
    counts: ProductionCounts = Counter()
    for step in d.steps:
        counts.update(step.productions())
    return counts


def derivation_probability(g: S0LSystem, d: Derivation) -> float:
    """Product of the probabilities of the applied productions.

    A production missing from g contributes 0, not an error.
    """
    result = 1.0
    for production, count in count_productions(d).items():
        p = g.probability(production)
        if p == 0.0:
            return 0.0
        result *= p**count
    return result


def sequence_probability_naive(
    g: S0LSystem, theta: Sequence, cap: int = DEFAULT_DERIVATION_CAP
) -> float:
    """Sum of derivation_probability over every derivation, by enumeration.

    Oracle for sequence_probability; returns 0.0 when theta is incompatible
    with g.  CapExceeded propagates.
    """
    try:
        stream = enumerate_derivations(g.base, theta, cap)
        return math.fsum(derivation_probability(g, d) for d in stream)
    except IncompatibleSequence:
        return 0.0


def sequence_probability(g: S0LSystem, theta: Sequence) -> LogLinear:
    """Probability that g generates theta, as (log value, linear value).

    Computed per step by dynamic programming and combined in log space, so
    the log survives underflow of the linear value.  Incompatible sequences
    give (-inf, 0.0).
    """
    values = step_values(g.prob, theta)
    log = 0.0
    for value in values:
        if value <= 0.0:
            return LogLinear(float("-inf"), 0.0)
        log += math.log(value)
    return LogLinear(log, math.prod(values))


def probability_gradient(g: S0LSystem, theta: Sequence) -> dict[Production, float]:
    """Exact partial derivatives of the linear p(theta) per production.

    Forward and backward tables per step give each step-sum's gradient; the
    product rule combines steps, with explicit handling of zero-valued steps
    (two or more zero steps kill every derivative).
    """
    values, grads = step_gradients(g.prob, theta)
    total: dict[Production, float] = {p: 0.0 for p in g.prob}
    zero_steps = [j for j, value in enumerate(values) if value == 0.0]
    if len(zero_steps) >= 2:
        return total
    if len(zero_steps) == 1:
        j = zero_steps[0]
        rest = math.prod(value for i, value in enumerate(values) if i != j)
        for production, slope in grads[j].items():
            total[production] = rest * slope
        return total
    m = len(values)
    prefix = [1.0] * (m + 1)
    for j, value in enumerate(values):
        prefix[j + 1] = prefix[j] * value
    suffix = [1.0] * (m + 1)
    for j in range(m - 1, -1, -1):
        suffix[j] = suffix[j + 1] * values[j]
    for j, grad in enumerate(grads):
        rest = prefix[j] * suffix[j + 1]
        for production, slope in grad.items():
            total[production] += rest * slope
    return total


def step_values(prob: Mapping[Production, float], theta: Sequence) -> list[float]:
    """The per-step sums S(w_j, w_{j+1}) whose product is p(theta).

    Accepts any nonnegative weighting of productions, normalized or not;
    weights absent from the mapping count as zero.
    """
    lattice, weights = _weighted_lattice(prob, theta)
    return lattice.values(weights)[0].tolist()


def step_gradients(
    prob: Mapping[Production, float], theta: Sequence
) -> tuple[list[float], list[dict[Production, float]]]:
    """Per-step values and per-step gradients with respect to each weight.

    The j-th gradient maps a production to the derivative of the j-th step
    sum; productions with zero or absent weight, and zero derivatives, are
    omitted.
    """
    lattice, weights = _weighted_lattice(prob, theta)
    values, slopes = lattice.slopes(weights)
    grads: list[dict[Production, float]] = [{} for _ in range(theta.step_count)]
    for step, index, slope in zip(
        lattice.pair_step.tolist(), lattice.pair_var.tolist(), slopes[0].tolist()
    ):
        if slope:
            grads[step][lattice.variables[index]] = slope
    return values[0].tolist(), grads


def _weighted_lattice(
    prob: Mapping[Production, float], theta: Sequence
) -> tuple[StepLattice, np.ndarray]:
    """The lattice over prob's nonzero weights, and those weights as one row."""
    support = []
    for production in sorted(prob):
        weight = prob[production]
        if weight < 0.0:
            raise ValueError(f"negative weight for {production}")
        if weight != 0.0:
            support.append(production)
    weights = np.array([[prob[p] for p in support]], dtype=float)
    return compile_lattice(theta, support), weights


def _per_step_assignments(
    system: Partial0LSystem, theta: Sequence, cap: int
) -> list[list[StepAssignment]]:
    """Each step's valid assignments, with the checks of enumerate_derivations."""
    if cap < 1:
        raise ValueError("cap must be a positive integer")
    index = _successor_sets(system.productions)
    per_step: list[list[StepAssignment]] = []
    truncated = False
    for number, (x, y) in enumerate(theta.steps(), start=1):
        assignments, cut = _step_assignments(index, x, y, limit=cap)
        if not assignments:
            raise IncompatibleSequence(
                f"step {number} has no valid assignment under the given system",
                step=number,
            )
        truncated = truncated or cut
        per_step.append(assignments)
    total = 1
    for assignments in per_step:
        total *= len(assignments)
    if total > cap:
        qualifier = "at least " if truncated else ""
        raise CapExceeded(
            f"derivation space holds {qualifier}{total} derivations, cap is {cap}",
            count=total,
            cap=cap,
        )
    return per_step


def _first_unique(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First index of each distinct row, in order of first occurrence, and
    each row's position in that order."""
    if rows.shape[1] == 0:
        return np.zeros(1, dtype=np.int64), np.zeros(len(rows), dtype=np.int64)
    keys = np.ascontiguousarray(rows).view(np.dtype((np.void, rows.itemsize * rows.shape[1])))
    _, index, inverse = np.unique(keys.ravel(), return_index=True, return_inverse=True)
    order = np.argsort(index)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return index[order], rank[inverse]


def _successor_sets(
    productions: Iterable[Production],
) -> dict[Symbol, list[tuple[int, set[Word]]]]:
    by_symbol: dict[Symbol, dict[int, set[Word]]] = {}
    for production in productions:
        lengths = by_symbol.setdefault(production.predecessor, {})
        lengths.setdefault(len(production.successor), set()).add(production.successor)
    return {a: sorted(lengths.items()) for a, lengths in by_symbol.items()}


def _step_assignments(
    index: dict[Symbol, list[tuple[int, set[Word]]]],
    x: Word,
    y: Word,
    limit: int | None = None,
) -> tuple[list[StepAssignment], bool]:
    """Valid assignments for one step, in ascending-cut order.

    Successors are tried shortest first at each position, which reproduces
    the cut-lexicographic order of enumerate_step_assignments when every
    candidate is allowed.  Collection stops once len exceeds limit; the
    second return value reports that truncation.
    """
    n = len(y)
    out: list[StepAssignment] = []
    parts: list[Word] = []

    def walk(i: int, k: int) -> bool:
        if limit is not None and len(out) > limit:
            return True
        if i == len(x):
            if k == n:
                out.append(StepAssignment(x, y, tuple(parts)))
            return False
        for length, successors in index.get(x[i], ()):
            if k + length > n:
                break
            z = y[k : k + length]
            if z in successors:
                parts.append(z)
                if walk(i + 1, k + length):
                    return True
                parts.pop()
        return False

    cut = walk(0, 0)
    return out, cut
