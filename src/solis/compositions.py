"""Weak compositions of a target word into ordered, possibly empty parts.

One rewriting step x => y assigns to each position of x a contiguous piece of
y; the pieces concatenate back to y.  Enumerating those assignments is
enumerating the weak compositions of y into |x| parts, i.e. choosing |x|-1
nondecreasing cut positions in y.  There are C(|y|+|x|-1, |x|-1) of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Iterator

from .errors import IncompatibleStep
from .model import Production, Symbol, Word

#: count_step_assignments clamps here instead of returning a larger exact value.
COUNT_CEILING = 2**63 - 1


@dataclass(frozen=True)
class StepAssignment:
    """One way to rewrite `source` into `target` in a single parallel step.

    parts[i] is the successor assigned to source position i; the parts
    concatenate to `target`, so position i induces the production
    source[i] -> parts[i].
    """

    source: Word
    target: Word
    parts: tuple[Word, ...]

    def productions(self) -> Iterator[Production]:
        """The production applied at each position, in position order."""
        for a, part in zip(self.source, self.parts):
            yield Production(a, part)


def enumerate_step_assignments(x: Word, y: Word) -> Iterator[StepAssignment]:
    """Yield every assignment of y-parts to the positions of x.

    Order is deterministic: cut positions in lexicographically increasing
    order, e.g. for x=AA, y=ABA the parts come out as (eps,ABA), (A,BA),
    (AB,A), (ABA,eps).

    Raises IncompatibleStep when x is empty but y is not; an empty word
    cannot derive anything nonempty.
    """
    if not x:
        if y:
            raise IncompatibleStep("empty word cannot derive a non-empty word")
        return iter((StepAssignment(x, y, ()),))
    return _assignments(x, y)


def _assignments(x: Word, y: Word) -> Iterator[StepAssignment]:
    n = len(y)
    for cuts in combinations_with_replacement(range(n + 1), len(x) - 1):
        bounds = (0, *cuts, n)
        parts = tuple(y[bounds[i]:bounds[i + 1]] for i in range(len(x)))
        yield StepAssignment(x, y, parts)


def count_step_assignments(x: Word, y: Word) -> int:
    """Number of step assignments for x => y, without enumerating them.

    Equals C(|y|+|x|-1, |x|-1).  Values above COUNT_CEILING are clamped to
    COUNT_CEILING rather than returned exactly.
    """
    if not x:
        return 0 if y else 1
    return _binomial_clamped(len(y) + len(x) - 1, len(x) - 1)


def _binomial_clamped(n: int, k: int) -> int:
    k = min(k, n - k)
    if k < 0:
        return 0
    # Incremental C(n-k+i, i) is nondecreasing in i, so clamping early is safe.
    result = 1
    for i in range(1, k + 1):
        result = result * (n - k + i) // i
        if result >= COUNT_CEILING:
            return COUNT_CEILING
    return result


def candidate_productions(x: Word, y: Word) -> frozenset[Production]:
    """All productions that appear in some step assignment for x => y.

    Computed directly: position 1 must produce a prefix of y, position |x|
    a suffix, and interior positions can produce any substring (the other
    positions absorb the rest).  Agrees with collecting productions from the
    full enumeration, but stays polynomial in |x| and |y|.
    """
    return frozenset(Production(a, z) for a, z in candidate_pairs(x, y))


def candidate_pairs(x: Word, y: Word) -> set[tuple[Symbol, Word]]:
    """The (predecessor, successor) pairs of candidate_productions.

    Each distinct pair is produced once, however many positions share it.
    """
    if not x:
        if y:
            raise IncompatibleStep("empty word cannot derive a non-empty word")
        return set()
    n = len(y)
    if len(x) == 1:
        return {(x[0], y)}
    pairs = {(x[0], y[:e]) for e in range(n + 1)}
    pairs.update((x[-1], y[s:]) for s in range(n + 1))
    interior = set(x[1:-1])
    if interior:
        substrings = {y[s:e] for s in range(n + 1) for e in range(s, n + 1)}
        pairs.update((a, z) for a in interior for z in substrings)
    return pairs
