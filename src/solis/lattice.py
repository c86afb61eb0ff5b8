"""The step lattice: p(theta)'s per-step dynamic program compiled to arrays,
and p(theta) and its expected counts computed on it.

One rewriting step x => y is a path problem.  Column k of the step means
"the positions rewritten so far produced y[:k]", and position i of x moves
from column s to column e by the production x[i] -> y[s:e].  A lone
position (|x| = 1) moves from 0 to |y|, the first of several from 0, the
last to |y|, and an interior one from any column to any not before it, so
every position's moves are copies of a few per-class arrays made once
per target length (_layout; _free_edges counts them in closed form).
Compiling a trace turns every move into an integer edge (src column, dst
column, variable id), grouped into rows by i.  Row i of every step runs in
the same pass: the kernel makes max_j |w_j| row passes, not sum_j |w_j|.  A
step with fewer positions than the current row carries its end column
forward along a pass-through edge of weight 1.

One builder (_build) lists the moves and assembles every lattice.  It
names every substring by an integer, its rank among the distinct ones
(Karp, Miller & Rosenberg 1972; each target is encoded as a str whose
order is word order), so one np.unique of the moves' (predecessor,
substring) keys numbers their productions canonically; the keys never
leave it.  free_lattice's variables are those productions, the free
system's, and every answer runs on that lattice.  compile_lattice's are
given: the builder matches the listed productions to them by value and
drops the moves that match none, so its edges are the free lattice's edges
over them, in the same order; only sequence_probability and
enumerate_derivations, which are given a system, compile one.
lattice_probability scores a probability map on any lattice.

Every pass over the rows is one sweep (StepLattice.sweep): gathers,
multiplies and scatters that move a table row by row, forward from the
steps' start columns or backward from their end columns, under an (R, V)
weight matrix whose rows are the solver's R restarts.  The direction fixes
the start columns and the table's dtype fixes the adder: np.bincount rows
for floats, exact np.add.at for int64 and Python ints.  So its instances
differ only in their start values and weights and in what they do with the
entries gathered at each row (the semiring view of Goodman 1999).  values
is a forward sweep.  expected_counts multiplies the forward sweep's entries
at each edge's src column by those a backward sweep, started at 1 / S_j
(Rabiner 1989), gathers at its dst column: the product is the edge's share
of its step sum, and one scatter of the shares gives the expected counts.
derivations counts assignments with a saturating backward sweep over unit
integer weights.  Float sums add their terms in the order of the textbook
recurrences (rows ascending, then successor length, then column), so the
results do not depend on how many rows are batched.

expected_counts runs in two arrays of a pass (StepLattice._pass) beside
the lattice: the edges' variable ids as intp, the index type of np.take and
np.bincount, which the int32 lattice would otherwise convert row by row,
and the tails (R, edges) that it keeps from its forward sweep and turns
into masses in its backward one.  The solver's ascent hands every kernel
call one buffers list: its first call makes those arrays and every later
call, of no more rows, runs in prefixes of them, so after its first call
the ascent's kernel allocates nothing of the lattice's size, only arrays of
one row of edges, of the columns or of the variables.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .errors import CapExceeded, IncompatibleSequence
from .model import LogLinear, Production, S0LSystem, Sequence, Symbol

#: compile_lattice refuses traces with more edges than this.  A lattice
#: stores 12 bytes of indices per edge, and the tails of a pass of
#: expected_counts hold one float64 per edge and weight row, so it runs at
#: most EDGE_CEILING / edges rows per pass: 10^7 edges take 120 MB to store,
#: and each buffer of a pass (the tails, and the edges' intp variable ids)
#: holds at most 10^7 entries for any number of rows.  maximize refuses more
#: restarts times variables than this, the size of the ascent's own arrays.
EDGE_CEILING = 10**7

#: index arrays, the bulk of a lattice's memory, are stored narrow: moves
#: and edges stay under EDGE_CEILING, so every index fits
_INDEX = np.int32


def _scatter(index: np.ndarray, values: np.ndarray, out: np.ndarray) -> None:
    """Bincount per row into out: out[r, c] becomes the sum of values[r, e]
    over the edges e with index[e] == c, added in edge order from 0.0."""
    index = index.astype(np.intp, copy=False)  # once, not once per np.bincount call
    for r, row in enumerate(values):
        out[r] = np.bincount(index, row, minlength=out.shape[1])


def _add_at(index: np.ndarray, values: np.ndarray, out: np.ndarray) -> None:
    """out[r, c] becomes the sum of values[r, e] over the edges e with
    index[e] == c, exactly in any integer dtype (np.bincount sums in
    float64, which rounds past 2**53)."""
    out[...] = 0
    for r, row in enumerate(values):
        np.add.at(out[r], index, row)


class StepLattice(NamedTuple):
    """Edges of every step of one trace over a fixed list of variables.

    Edge arrays are sorted by (row, step, successor length, src column); the
    edges of row i are those in [bounds[i], bounds[i + 1]), and the edges of
    step j are those whose dst lies in [starts[j], ends[j]].
    var == len(variables) marks a pass-through edge.  A NamedTuple whose
    fields hold numpy arrays: compare lattices field by field, never with ==.
    """

    variables: tuple[Production, ...]
    columns: int
    starts: np.ndarray
    ends: np.ndarray
    bounds: tuple[int, ...]
    src: np.ndarray
    dst: np.ndarray
    var: np.ndarray

    def values(self, weights: np.ndarray) -> np.ndarray:
        """Per-step sums, shape (R, steps), for weights of shape (R, V)."""
        return self.sweep(1.0, weights).take(self.ends, axis=1)

    def expected_counts(self, weights: np.ndarray, buffers=None) -> tuple[np.ndarray, np.ndarray]:
        """Per-step sums and x_p * d log p(theta) / d x_p for every variable.

        The second array is the expected number of times each production
        fires in a derivation drawn in proportion to its weight.  The
        forward sweep copies each edge's tail into the pass's tails; the
        backward sweep starts each step's end column at 1 / S_j and
        multiplies each tail by its edge's head in place, so an edge's mass
        is its share of its step sum and one scatter gives the counts.  A
        step sum below the smallest normal double, where 1 / S_j would
        overflow, starts at 1 instead, and its edges' masses are divided by
        S_j afterwards.  In a row with a zero step sum, every variable with
        an edge in that step gets a non-finite count.

        Rows run in chunks of at most EDGE_CEILING / edges, whose results
        are concatenated.  Rows do not interact, each row's counts are one
        np.bincount in edge order, and the step sums come back
        C-contiguous, so that np.log(values).sum(axis=1) adds a row's steps
        in one order: a row's results do not depend on the rows beside it.

        buffers, a list that the calls of one solve on this lattice share,
        keeps the pass arrays (_pass) of its first call, and a later call of
        no more rows runs in prefixes of them: only the first call allocates
        arrays of the lattice's size.  The arrays returned are new, never
        views of the pass arrays.
        """
        chunk = max(1, EDGE_CEILING // max(self.bounds[-1], 1))
        if len(weights) > chunk:
            rows = range(0, len(weights), chunk)
            parts = [self.expected_counts(weights[lo : lo + chunk], buffers) for lo in rows]
            return np.concatenate([v for v, _ in parts]), np.concatenate([c for _, c in parts])
        work = index, tails, sums = self._pass(weights, float, [] if buffers is None else buffers)

        def keep(lo: int, hi: int, tail: np.ndarray) -> None:
            tails[:, lo:hi] = tail

        def times_head(lo: int, hi: int, head: np.ndarray) -> None:
            np.multiply(tails[:, lo:hi], head, out=tails[:, lo:hi])

        values = self.sweep(1.0, weights, keep, work=work).take(self.ends, axis=1)
        small = values < np.finfo(float).tiny
        with np.errstate(divide="ignore", invalid="ignore"):
            self.sweep(1.0 / np.where(small, 1.0, values), weights, times_head, True, work)
            if small.any():
                # the edges of step j are those with dst in [starts[j], ends[j]]
                tails /= np.where(small, values, 1.0)[:, np.searchsorted(self.ends, self.dst)]
            _scatter(index, tails, sums)  # over the padded weights, which are spent
            return values, weights * sums[:, :-1]

    def _pass(self, weights: np.ndarray, dtype, kept=None) -> tuple:
        """The arrays that a pass over the R rows of weights (R, V) runs in:
        the edges' variable ids, the float64 tails (R, edges) that
        expected_counts keeps, and the weights padded with the pass-through
        column of 1, (R, V + 1) in dtype.  A sweep's own pass (kept None)
        keeps no tails and reads the int32 ids, converted row by row.  Given
        a list kept whose arrays have room for R rows, the ids are its intp
        copy, converted once, and the tails a prefix of its (R, edges)
        array; otherwise these are allocated and put in kept."""
        padded = np.concatenate((weights, np.ones((len(weights), 1), dtype)), axis=1)
        if kept is None:
            return self.var, None, padded
        if not kept or len(kept[1]) < len(weights):
            kept[:] = self.var.astype(np.intp), np.empty((len(weights), self.bounds[-1]))
        return kept[0], kept[1][: len(weights)], padded

    def sweep(self, start, weights, visit=None, backward=False, work=None) -> np.ndarray:
        """Move a table of shape (R, columns), in the dtype of weights and
        start, over the rows of edges and return it.

        The table starts at start in the steps' start columns forward, their
        end columns backward, 0 elsewhere, and the weights (R, V) gain a
        pass-through column of 1.  Forward, row i's edges carry
        table[src] * weight to dst, rows ascending, so table[r, c] becomes
        the weight of the prefixes that end at column c; backward, they carry
        table[dst] * weight to src, rows descending, for the suffixes that
        start at c.  Before a row moves, visit(lo, hi, near) sees the entries
        gathered at its edges' near ends, to keep or change in place.  What
        arrives at each column is summed by np.bincount in a float table and
        exactly, by np.add.at, in an integer or object one, and overwrites
        the table.  The sweep reads its padded weights and the edges'
        variable ids from work, the arrays of a pass (_pass), or makes its
        own.  Per-row arrays stay contiguous (numpy multiplies strided 2-D
        slices several times slower), and edge weights are gathered from
        the small (R, V + 1) matrix rather than copied to (R, edges).
        """
        dtype = np.result_type(weights.dtype, np.asarray(start).dtype)
        index, _, padded = work or self._pass(weights, dtype)
        scatter = _scatter if dtype.kind == "f" else _add_at
        table = np.zeros((len(weights), self.columns), dtype)
        table[:, self.ends if backward else self.starts] = start
        near, far = (self.dst, self.src) if backward else (self.src, self.dst)
        rows = list(zip(self.bounds, self.bounds[1:]))
        for lo, hi in reversed(rows) if backward else rows:
            gathered = table.take(near[lo:hi], axis=1)
            if visit is not None:
                visit(lo, hi, gathered)
            moved = padded.take(index[lo:hi], axis=1)
            moved *= gathered
            scatter(far[lo:hi], moved, table)
        return table


def compile_lattice(theta: Sequence, variables: Iterable[Production]) -> StepLattice:
    """Compile every step of theta over the given productions.

    The lattice holds exactly the free lattice's edges whose production is
    a variable, in the same order: the builder (_build) lists the moves of
    the variables' successor lengths and keeps those whose production
    matches a variable by value.  Productions that fit no step contribute
    no edges; a step that no combination of them can perform gets a zero
    sum.  Raises ValueError, before listing any move, if a production is
    listed twice, and CapExceeded, before the edge arrays are assembled,
    when the lattice would hold more than EDGE_CEILING edges.
    """
    variables = tuple(variables)
    if len(set(variables)) < len(variables):
        raise ValueError("a production is listed twice among the variables")
    return _build(theta, variables)


def free_lattice(theta: Sequence) -> StepLattice:
    """The lattice over theta's free system, whose variables are the free
    productions (the distinct moves) in canonical order.  Raises
    CapExceeded, before listing any move (a cubic cost in the word
    lengths), when the lattice would pass EDGE_CEILING, then
    IncompatibleSequence if some w_i is empty while w_{i+1} is not (with
    the 1-based step index).
    """
    check_edge_count(_free_edges(theta))
    for index, (x, y) in enumerate(theta.steps(), start=1):
        if y and not x:
            message = f"step {index} is impossible: empty word cannot derive a non-empty word"
            raise IncompatibleSequence(message, step=index)
    return _build(theta, None)


def check_edge_count(edges: int) -> None:
    """Raise CapExceeded if a lattice of this many edges passes EDGE_CEILING."""
    if edges > EDGE_CEILING:
        raise CapExceeded(
            f"step lattice would hold {edges} edges, ceiling is {EDGE_CEILING}",
            count=edges,
            cap=EDGE_CEILING,
        )


#: position classes: a step x => y with |x| = 1 has one lone position,
#: which produces all of y; with |x| >= 2 the first position produces a
#: prefix, the last a suffix and every other (interior) one any substring.
#: Position i of x is of class (i > 0) + 2 * (i == |x| - 1): whether its
#: part may start past column 0, and whether it must end at column |y|.
_FIRST, _INTERIOR, _ONLY, _LAST = range(4)


def _layout(m: int, n: int, lengths: set[int] | None) -> tuple[list[slice], dict]:
    """The substrings y[s:e] that the positions of a step with |x| = m and
    |y| = n can produce, sorted by length, then start: their slices, and per
    position class its moves into them in the same order, as a (3, moves)
    array of (span index, s, e).  lengths, if given, are the successor
    lengths allowed.

    Only a step with interior positions lists every substring; a step of
    one or two positions lists y, or its prefixes and suffixes.
    """
    allowed = [k for k in range(n + 1) if lengths is None or k in lengths]
    if m == 1:
        if allowed[-1:] != [n]:
            return [], {_ONLY: np.zeros((3, 0), _INDEX)}
        return [slice(0, n)], {_ONLY: np.array([[0], [0], [n]], _INDEX)}
    count = len(allowed)
    if m == 2:
        first = [range(count), [0] * count, allowed]
        last = [range(count, 2 * count), [n - k for k in allowed], [n] * count]
        spans = [slice(0, k) for k in allowed] + [slice(n - k, n) for k in allowed]
        return spans, {_FIRST: np.array(first, _INDEX), _LAST: np.array(last, _INDEX)}
    allowed = np.array(allowed, np.int64)
    sizes = n + 1 - allowed
    firsts = np.cumsum(sizes) - sizes
    index = np.arange(sizes.sum())
    begin = index - np.repeat(firsts, sizes)
    end = begin + np.repeat(allowed, sizes)
    interior = np.array((index, begin, end), _INDEX)
    classes = {
        _FIRST: interior[:, firsts],
        _LAST: interior[:, firsts + sizes - 1],
        _INTERIOR: interior,
    }
    return list(map(slice, begin.tolist(), end.tolist())), classes


def _free_edges(theta: Sequence) -> int:
    """Edges of the free lattice, from word lengths, as _layout lays them
    out with every length allowed: a lone position of a step x => y moves
    to all of y, the first and the last of several to any of the |y| + 1
    prefixes and suffixes, and an interior one to any substring; a step
    with fewer positions than the longest source adds one pass-through edge
    per missing position, so a step of at most one position has one edge
    per row."""
    rows = max(len(x) for x, _ in theta.steps())
    edges = 0
    for x, y in theta.steps():
        m, n = len(x), len(y)
        edges += rows if m < 2 else rows - m + 2 * (n + 1) + (m - 2) * (n + 1) * (n + 2) // 2
    return edges


def _build(theta: Sequence, variables: tuple[Production, ...] | None) -> StepLattice:
    """The lattice of theta over variables or, if None, over the distinct
    productions of its moves in canonical order, the free system's.

    Variables given, only moves of their successor lengths are listed, each
    listed production is matched to a variable by value, and the moves that
    match none are dropped.  A group is the moves of one step that some
    positions share: positions of the same class with the same predecessor
    share one, and each step with fewer positions than the longest source
    gets one more group, its pass-through move from its end column to
    itself.  Moves are listed group after group, each group sorted by
    (successor length, src column), and the pass-through moves come last.
    groups[r, j] is the group of row r of step j, so gathering the groups'
    moves in its row-major order sorts the edges by (row, step), then in
    move order.

    One pass slices every listed substring of every target and ranks the
    distinct ones; each group takes its moves from its step's (position
    count, target length) layout, made once, and one np.unique of the
    moves' keys numbers the productions.  The listing's tables are freed
    before the keys are sorted, its substrings once the productions are
    decoded, and the moves' int64 owners once their variable ids are made,
    so that none of them adds to the peak.  Raises CapExceeded, before any
    per-edge array is allocated, when the edges pass EDGE_CEILING.
    """
    lengths = None if variables is None else {len(p.successor) for p in variables}
    steps = list(theta.steps())
    symbols = sorted(theta.symbols())
    letters = None if all(len(a) == 1 for a in symbols) else {
        a: chr(i) for i, a in enumerate(symbols)
    }
    codes = {a: i for i, a in enumerate(symbols)}
    layouts: dict[tuple[int, int], tuple[list[slice], dict[int, np.ndarray]]] = {}
    listed: list[str] = []
    tables: list[np.ndarray] = []  # per group: (span index, s, e) rows
    anchors: list[tuple[int, int, int]] = []  # per group: first listed substring, column, code
    per_step: list[list[int]] = []  # per step: the group of each position
    starts, ends, column = [], [], 0
    for x, y in steps:
        m, n = len(x), len(y)
        shape = (min(m, 3), n)
        if shape not in layouts:
            layouts[shape] = _layout(m, n, lengths) if m else ([], {})
        spans, classes = layouts[shape]
        shared: dict[tuple[int, Symbol], int] = {}
        row = []
        for i, a in enumerate(x):
            key = (i > 0) + 2 * (i == m - 1), a
            if key not in shared:
                shared[key] = len(tables)
                tables.append(classes[key[0]])
                anchors.append((len(listed), column, codes[a]))
            row.append(shared[key])
        per_step.append(row)
        if spans:
            word = "".join(y if letters is None else map(letters.__getitem__, y))
            listed += map(word.__getitem__, spans)
        starts.append(column)
        ends.append(column + n)
        column += n + 1
    substrings = sorted(set(listed))
    rank = {word: i for i, word in enumerate(substrings)}
    sub_of = np.fromiter(map(rank.__getitem__, listed), _INDEX, len(listed))
    span, begin, end = np.concatenate([np.zeros((3, 0), _INDEX), *tables], axis=1)
    sizes = np.array([table.shape[1] for table in tables], np.int64)
    listing, column, code = np.repeat(np.array(anchors, np.int64).reshape(-1, 3).T, sizes, axis=1)
    starts, ends = np.array(starts, _INDEX), np.array(ends, _INDEX)
    width = max(len(x) for x, _ in steps)
    groups = [row + [len(tables) + j] * (width - len(row)) for j, row in enumerate(per_step)]
    groups = np.array(groups, np.int64).T
    src = np.concatenate((begin + column, ends)).astype(_INDEX)
    dst = np.concatenate((end + column, ends)).astype(_INDEX)
    code *= len(substrings)
    code += sub_of[span + listing]
    del listed, rank, sub_of, span, begin, end, listing, column, tables, anchors, layouts
    del spans, classes
    keys, owner = np.unique(code, return_inverse=True)
    del code
    heads, subs = np.divmod(keys, len(substrings))
    words = map(substrings.__getitem__, subs.tolist())
    if letters is None:
        successors = map(tuple, words)
    else:
        successors = (tuple(symbols[ord(c)] for c in word) for word in words)
    productions = tuple(map(Production, map(symbols.__getitem__, heads.tolist()), successors))
    del substrings, keys, heads, subs, words, successors, per_step
    if variables is None:
        variables = productions
    else:
        index = {p: i for i, p in enumerate(variables)}
        owner = np.array([index.get(p, -1) for p in productions], np.int64)[owner]
    var = np.concatenate((owner, np.full(len(steps), len(variables))), dtype=_INDEX)
    del owner
    sizes = np.concatenate((sizes, np.ones(len(steps), sizes.dtype)))
    if var.min() < 0:
        keep = var >= 0
        sizes = np.bincount(np.repeat(np.arange(sizes.size), sizes)[keep], minlength=sizes.size)
        var, src, dst = var[keep], src[keep], dst[keep]
    per_segment = sizes[groups]
    per_row = per_segment.sum(axis=1)
    check_edge_count(int(per_row.sum()))
    # the edges of each (row, step) segment are a range of its group's moves
    segment = per_segment.ravel()
    first = (np.cumsum(sizes) - sizes)[groups].ravel() - np.cumsum(segment) + segment
    edge = np.repeat(first.astype(_INDEX), segment)
    edge += np.arange(edge.size, dtype=_INDEX)
    return StepLattice(
        variables=variables,
        columns=int(ends[-1]) + 1,
        starts=starts,
        ends=ends,
        bounds=tuple(np.concatenate(([0], np.cumsum(per_row))).tolist()),
        src=src[edge],
        dst=dst[edge],
        var=var[edge],
    )


def sequence_probability(g: S0LSystem, theta: Sequence) -> LogLinear:
    """Probability that g generates theta, as (log value, linear value).

    Computed per step on the lattice of theta over g's productions and
    combined in log space, so the log survives underflow of the linear
    value.  A trace that does not start at g's axiom, or that g cannot
    derive, gives (-inf, 0.0).
    """
    if theta.axiom != g.base.axiom:
        return LogLinear(float("-inf"), 0.0)
    return lattice_probability(compile_lattice(theta, g.base.productions), g.prob)


def lattice_probability(lattice: StepLattice, prob: Mapping[Production, float]) -> LogLinear:
    """p(theta) on the lattice under the weights prob gives its variables,
    0 for a variable absent from prob, as (log value, linear value)."""
    weights = np.array([[prob.get(p, 0.0) for p in lattice.variables]])
    return log_linear(lattice.values(weights)[0].tolist())


def log_linear(values: list[float]) -> LogLinear:
    """The product of per-step sums, as (log value, linear value); the log
    is summed step by step, so it survives underflow of the product.  A
    zero step gives (-inf, 0.0)."""
    log = 0.0
    for value in values:
        if value <= 0.0:
            return LogLinear(float("-inf"), 0.0)
        log += math.log(value)
    return LogLinear(log, math.prod(values))
