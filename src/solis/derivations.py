"""Derivations of a word sequence: step assignments, enumeration and count
multisets.

A StepAssignment rewrites x => y in one step: it gives each position of x a
contiguous, possibly empty part of y, and the parts concatenate to y.  A
derivation chains one assignment per step, so it fixes the production that
rewrote every position; its probability is the product of those
productions' probabilities, and p(theta) sums it over all derivations.  The
lattice module computes that sum without materializing any derivation.
Steps are independent, so the derivations are grouped by production-count
multiset one step at a time (count_multisets), again materializing none.
A step's assignments are paths through its rows of the step lattice: the
lattice's sweep (StepLattice.sweep), run backward over unit weights, counts
them, and one forward pass over its edges merges them into their distinct
multisets or lists them in order.  The tables take the lattice their caller
already holds, usually the free lattice, so a trace's moves are listed once;
enumerate_derivations compiles one over a given system's productions.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import groupby, product
from typing import Iterator, NamedTuple

import numpy as np

from .errors import CapExceeded, IncompatibleSequence
from .formats import needs_tokens, serialize_word
from .lattice import StepLattice, compile_lattice, free_lattice
from .model import Partial0LSystem, Production, S0LSystem, Sequence, Word, _checked

#: refuse to stream a derivation space larger than this unless told otherwise
DEFAULT_DERIVATION_CAP = 10**7

#: count_multisets with near_best keeps every multiset whose score lies
#: within this relative distance of the top score
SCORE_WINDOW = 1e-9

#: multiset of applied productions over a whole derivation
ProductionCounts = Counter[Production]


class StepAssignment(NamedTuple):
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


class _DerivationFields(NamedTuple):
    steps: tuple[StepAssignment, ...]


class Derivation(_DerivationFields):
    """One per-step assignment chain: each step's target is the next source."""

    __slots__ = ()
    _make = classmethod(_checked)

    def __new__(cls, steps: tuple[StepAssignment, ...]) -> "Derivation":
        for first, second in zip(steps, steps[1:]):
            if first.target != second.source:
                raise ValueError(
                    f"steps do not chain: {first.target!r} != {second.source!r}"
                )
        return super().__new__(cls, steps)


def enumerate_derivations(
    system: Partial0LSystem | None,
    theta: Sequence,
    cap: int = DEFAULT_DERIVATION_CAP,
) -> Iterator[Derivation]:
    """Yield every derivation of theta whose productions all lie in system,
    or, if system is None, in the free system (run on the free lattice).

    The stream is the Cartesian product of the per-step valid assignments,
    earlier steps most significant, each step's assignments in
    lexicographic order of their cuts (the ends of the parts in the
    target): for x=AA, y=ABA the parts are (eps,ABA), (A,BA), (AB,A),
    (ABA,eps).  Raises IncompatibleSequence, with step None, if theta does
    not start at the system's axiom, or if some step admits no valid
    assignment (1-based step index in the error), and CapExceeded if the
    derivation count exceeds cap; a step with more than cap + 1
    assignments counts as cap + 1, and the count carried by CapExceeded is
    then a lower bound ("at least" in the message).  Both checks run on
    counts taken from the step lattice, before any assignment is listed.
    """
    if system is None:
        lattice = free_lattice(theta)
    elif system.axiom != theta.axiom:
        tokens = needs_tokens(system.axiom + theta.axiom)
        start, axiom = (serialize_word(w, tokens) for w in (theta.axiom, system.axiom))
        message = f"the trace starts at {start}, not at the system's axiom {axiom}"
        raise IncompatibleSequence(message)
    else:
        lattice = compile_lattice(theta, system.productions)
    steps = _assignment_rows(lattice, theta, cap, merge=False)
    per_step = [_assignments(x, y, cuts) for (x, y), (cuts, _, _) in zip(theta.steps(), steps)]
    return (Derivation(steps=combo) for combo in product(*per_step))


class MultisetTable(NamedTuple):
    """The distinct production-count multisets of a trace's derivations.

    Row i of `rows` lists the productions (indices into the lattice's
    variables) that the derivations of one multiset apply, sorted, one
    column per rewritten position.  Rows are in the order of their earliest
    derivation in enumerate_derivations order, and `multiplicity[i]` is the
    number of derivations with multiset i.  That earliest derivation takes,
    in step j, the assignment whose parts end at `cuts[j][first[i, j]]`.
    A table pruned to the multisets near the best score holds only some
    multisets, and its multiplicity is None.
    """

    words: tuple[tuple[Word, Word], ...]
    cuts: tuple[np.ndarray, ...]
    rows: np.ndarray
    first: np.ndarray
    multiplicity: np.ndarray | None

    def counts(self, i: int) -> tuple[tuple[int, int], ...]:
        """(production index, count) for each production of multiset i."""
        return tuple((k, len(list(run))) for k, run in groupby(self.rows[i].tolist()))

    def scores(self) -> np.ndarray:
        """sum(count * log count) over the counts of each multiset."""
        return _bounds(self.rows)

    def derivation(self, i: int) -> Derivation:
        """The earliest derivation with multiset i."""
        return Derivation(
            steps=tuple(
                _assignments(x, y, cuts[k : k + 1])[0]
                for (x, y), cuts, k in zip(self.words, self.cuts, self.first[i].tolist())
            )
        )


def count_multisets(
    lattice: StepLattice,
    theta: Sequence,
    cap: int = DEFAULT_DERIVATION_CAP,
    near_best: bool = False,
) -> MultisetTable:
    """Group the derivations of theta whose productions are the lattice's
    variables by count multiset, in enumerate_derivations order.  The
    lattice is theta's, over any productions; callers pass the free lattice
    they already hold.

    Steps are independent and a derivation's multiset is the sum of its
    steps' multisets, so the table is built one step at a time: every
    distinct multiset so far is paired with every distinct multiset of the
    next step, and the pairs are deduplicated.  Each step's distinct
    multisets come from one pass over the step lattice; no derivation, and
    no assignment beyond each multiset's earliest, is materialized.  Raises
    as enumerate_derivations does.

    With near_best, the pairing is a branch and bound (Land & Doig 1960) on
    the score sum(count * log count): the table keeps every multiset whose
    score lies within a relative SCORE_WINDOW of the top score, each in the
    same order and with the same earliest derivation as in the full table,
    but drops most others, and its multiplicity is None.  Before each
    pairing, a multiset so far is dropped when even its best completion
    cannot reach a floor just below an incumbent score.  Its best
    completion is bounded by piling, per predecessor, the occurrences still
    to be rewritten onto its largest count of that predecessor's
    productions; c log c is convex and 0 at 0, so no completion scores
    more.  Step multisets are dropped the same way, with the occurrences of
    every other step.  The incumbent is the score of a real multiset, built
    by keeping the best pair at every step.
    """
    steps = _assignment_rows(lattice, theta, cap, merge=True)
    rows = np.zeros((1, 0), dtype=steps[0][1].dtype)
    first = np.zeros((1, 0), dtype=np.int64)
    if near_best:
        # per-step occurrences of each production's predecessor
        symbols = {a: b for b, a in enumerate(sorted({p.predecessor for p in lattice.variables}))}
        block = np.array([symbols[p.predecessor] for p in lattice.variables], np.intp)
        occurrences = np.array(
            [[x.count(a) for a in symbols] for x, _ in theta.steps()], np.int64
        ).reshape(len(steps), len(symbols))
        ahead = np.cumsum(occurrences[::-1], axis=0)[::-1]  # steps j.. per block
        incumbent = _greedy_score([step_rows for _, step_rows, _ in steps])
        # every score in the window is at least incumbent * (1 - SCORE_WINDOW);
        # the floor sits lower by far more than the float error of a bound
        floor = incumbent * (1.0 - 2 * SCORE_WINDOW) - SCORE_WINDOW
        multiplicity = None
    else:
        # exact in the steps' dtype: the cap check bounds every product by the cap
        multiplicity = np.ones(1, dtype=steps[0][2].dtype)
    for j, (_, step_rows, step_multiplicity) in enumerate(steps):
        picked = np.arange(len(step_rows))
        if near_best:
            alive = _bounds(rows, block, ahead[j]) >= floor
            rows, first = rows[alive], first[alive]
            picked = np.flatnonzero(_bounds(step_rows, block, ahead[0] - occurrences[j]) >= floor)
        # pairs run in enumeration order of (running row's earliest prefix,
        # step row's earliest assignment), so a multiset's first pair extends
        # its earliest prefix by its earliest assignment
        left = np.repeat(np.arange(len(rows)), len(picked))
        right = np.tile(picked, len(rows))
        pairs = np.sort(np.concatenate([rows[left], step_rows[right]], axis=1), axis=1)
        keep, inverse = _first_unique(pairs)
        rows = pairs[keep]
        first = np.column_stack([first[left[keep]], right[keep]])
        if multiplicity is not None:
            merged = np.zeros(len(keep), dtype=multiplicity.dtype)
            shares = multiplicity[left] * step_multiplicity[right]
            np.add.at(merged, inverse, shares)
            multiplicity = merged
    return MultisetTable(
        words=tuple(theta.steps()),
        cuts=tuple(cuts for cuts, _, _ in steps),
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


def _assignment_rows(
    lattice: StepLattice, theta: Sequence, cap: int, merge: bool
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Each step's assignments in cut-lexicographic order, read off theta's
    step lattice.

    Per step come (cuts, rows, multiplicity).  Row k of cuts holds, per
    position of the step's source, the end of that position's part in the
    target: an assignment, or with merge the earliest assignment of the
    multiset in row k of rows (sorted production indices), which
    multiplicity[k] assignments share.

    First the lattice's backward sweep over unit weights counts every
    step's assignments, saturating at cap + 2, in int64 or, where a row's
    sum could pass 2**63, in Python ints; it marks the edges whose dst
    column can still finish the step.  The checks of enumerate_derivations
    run on these counts, before anything is listed.  Then a forward pass
    extends every state (column, cut path, sorted production prefix) by the
    row's marked edges out of its column, shortest successor first, so
    states stay in cut-lexicographic order.  With merge, states that share
    (column, prefix) collapse into the first, which holds the earliest cut
    path; every completion of a later one is matched by an earlier
    completion of the first, so each final row keeps its earliest
    assignment.
    """
    if cap < 1:
        raise ValueError("cap must be a positive integer")
    spans = list(zip(lattice.bounds, lattice.bounds[1:]))
    # a step with more than cap + 1 assignments reports cap + 1 of them, as
    # many as listing until the cap is passed finds
    limit = cap + 2
    widest = max((hi - lo for lo, hi in spans), default=0)
    dtype = np.int64 if limit * max(widest, 1) < 2**63 else object
    live = np.empty(lattice.bounds[-1], bool)

    def saturate(lo: int, hi: int, finishing: np.ndarray) -> None:
        np.minimum(finishing, limit, out=finishing)
        live[lo:hi] = finishing[0] > 0

    unit = np.ones((1, len(lattice.variables)), dtype)
    table = lattice.sweep(1, unit, saturate, backward=True)
    counts = np.minimum(table[0, lattice.starts], limit).tolist()
    for number, count in enumerate(counts, start=1):
        if count == 0:
            raise IncompatibleSequence(
                f"step {number} has no valid assignment under the given system",
                step=number,
            )
    total = math.prod(min(count, cap + 1) for count in counts)
    if total > cap:
        qualifier = "at least " if max(counts) == limit else ""
        raise CapExceeded(
            f"derivation space holds {qualifier}{total} derivations, cap is {cap}",
            count=total,
            cap=cap,
        )

    # one state per step to start with; children follow their parents, so
    # states stay grouped by step
    column = lattice.starts.astype(np.int64)
    cuts = np.zeros((len(column), 0), np.int32)
    prefix = np.zeros((len(column), 0), np.min_scalar_type(len(lattice.variables)))
    multiplicity = np.ones(len(column), dtype)
    key = np.promote_types(np.min_scalar_type(lattice.columns), prefix.dtype)
    # every row's edges by src column, in one stable sort that keeps
    # successor length ascending
    row_of_edge = np.repeat(np.arange(len(spans)), np.diff(lattice.bounds))
    order = np.lexsort((lattice.src, row_of_edge))
    for lo, hi in spans:
        src, dst = lattice.src[lo:hi], lattice.dst[lo:hi]
        by_src = order[lo:hi] - lo
        degree = np.bincount(src, minlength=lattice.columns)
        first = np.cumsum(degree) - degree  # each column's first edge in by_src
        out = degree[column]
        parent = np.repeat(np.arange(len(column)), out)
        # the k-th edge out of each state's column, k = 0 .. out - 1
        shift = np.repeat(first[column] - (np.cumsum(out) - out), out)
        edge = by_src[shift + np.arange(len(parent))]
        alive = live[lo:hi][edge]
        parent, edge = parent[alive], edge[alive]
        column = dst[edge].astype(np.int64)
        multiplicity = multiplicity[parent]
        if merge:
            prefix = np.sort(np.column_stack((prefix[parent], lattice.var[lo:hi][edge])), axis=1)
            keep, inverse = _first_unique(np.column_stack((column, prefix)).astype(key))
            merged = np.zeros(len(keep), dtype)
            np.add.at(merged, inverse, multiplicity)
            parent, column, prefix, multiplicity = parent[keep], column[keep], prefix[keep], merged
        else:
            prefix = prefix[parent]
        cuts = np.column_stack((cuts[parent], column.astype(np.int32)))
    # every state now sits at its step's end column, the steps in order
    pieces = np.searchsorted(column, lattice.ends[:-1], side="right")
    steps = [
        (c[:, : len(x)] - start, r[:, : len(x)], m)
        for (x, _), start, c, r, m in zip(
            theta.steps(),
            lattice.starts.tolist(),
            np.split(cuts, pieces),
            np.split(prefix, pieces),
            np.split(multiplicity, pieces),
        )
    ]
    return steps


def _assignments(x: Word, y: Word, cuts: np.ndarray) -> list[StepAssignment]:
    """The assignments of x => y whose parts end at each row of cuts.

    Equal parts share one tuple, which keeps a long list of assignments
    small."""
    shared: dict[tuple[int, int], Word] = {}
    assignments = []
    for ends in cuts.tolist():
        spans = zip([0, *ends], ends)
        parts = tuple(shared.setdefault(span, y[span[0] : span[1]]) for span in spans)
        assignments.append(StepAssignment(x, y, parts))
    return assignments


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


def _greedy_score(step_rows: list[np.ndarray]) -> float:
    """The score of one real multiset: step by step, the best of the running
    multiset's pairs with the step's multisets."""
    row = np.zeros((1, 0), step_rows[0].dtype)
    for rows in step_rows:
        pairs = np.sort(np.concatenate([np.repeat(row, len(rows), axis=0), rows], axis=1), axis=1)
        row = pairs[[np.argmax(_bounds(pairs))]]
    return float(_bounds(row)[0])


def _bounds(
    rows: np.ndarray, block: np.ndarray | None = None, spare: np.ndarray | None = None
) -> np.ndarray:
    """sum(c * log c) over the run lengths c of each sorted row, plus, for
    every block b, what spare[b] more occurrences add when piled onto the
    row's longest run of a production in block b (block maps production
    indices to blocks).  Without spare occurrences this is the row's score.

    A position k places into its run contributes k log k - (k-1) log(k-1),
    so that each run of length c contributes c log c.
    """
    n, width = rows.shape
    position = np.arange(width)
    starts = np.ones((n, width), dtype=bool)
    starts[:, 1:] = rows[:, 1:] != rows[:, :-1]
    depth = position - np.maximum.accumulate(np.where(starts, position, 0), axis=1)
    increments = np.diff(_xlogx(np.arange(width + 1)))
    bound = increments[depth].sum(axis=1)
    if spare is not None:
        owner = block[rows]
        for b in np.flatnonzero(spare).tolist():
            top = np.where(owner == b, depth + 1, 0).max(axis=1, initial=0)
            bound += _xlogx(top + spare[b]) - _xlogx(top)
    return bound


def _xlogx(c: np.ndarray) -> np.ndarray:
    """c log c elementwise, 0 at 0."""
    c = np.asarray(c, dtype=float)
    return c * np.log(np.maximum(c, 1.0))
