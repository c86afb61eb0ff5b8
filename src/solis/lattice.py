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
weight matrix whose rows are the solver's R restarts.  The R rows of the
table are one flat array of R * columns entries, and the sweep reads a
schedule (_schedule) of every edge's src and dst column and variable id as
intp, offset by r * columns and r * (V + 1) for restart r, stored row of
edges by row of edges, each row's restarts one after the other.  So a row
of edges moves every restart at once: one 1-D np.take of the table at its
near ends, one of the flat weights, a multiply and one scatter, np.bincount
for floats and exact np.add.at for int64 and Python ints.  A column
receives only its own restart's entries, in edge order, so its sum is that
of its row alone.  The direction fixes the start columns and the table's
dtype fixes the adder, so the sweep's instances differ only in their start
values and weights and in what they do with the entries gathered at each
row (the semiring view of Goodman 1999).  values is a forward sweep.
expected_counts multiplies the forward sweep's entries at each edge's src
column by those a backward sweep, started at 1 / S_j (Rabiner 1989),
gathers at its dst column: the product is the edge's share of its step
sum, and one scatter of the shares gives the expected counts.  derivations
counts assignments with a saturating backward sweep over unit integer
weights.  Float sums add their terms in the order of the textbook
recurrences (rows ascending, then successor length, then column), so the
results do not depend on how many rows are batched.

expected_counts answers in log p(theta), one per weight row, the log of
the product of its step sums, which survives underflow of the product; the
solver decides on nothing else.  One function (_log_p) forms it from the
step sums, for the kernel and for lattice_probability, so every log
p(theta) that solis prints is the one the solver decided on.  The kernel
runs in two arrays beside the lattice, in the schedule's layout: the
schedule itself, and the tails, which the forward sweep gathers straight
into and the backward one turns into masses; one np.bincount of the tails
over the schedule's variable ids gives every row's counts.  Weight rows run in passes of at most
max(1, PASS_ENTRIES // edges), which bounds both arrays: 6 restarts a pass
on a lattice of 20,774 edges, 1 on one of 66,000.  The solver's ascent
hands every kernel call one buffers list: its first call makes the schedule
and the tails for its rows, up to a pass, and every later call of no more
rows reads a prefix of each row's block, so after its first call the
ascent's kernel allocates nothing of the lattice's size, only arrays of one
row of edges, of the columns or of the variables.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .errors import CapExceeded, IncompatibleSequence
from .model import LogLinear, Production, S0LSystem, Sequence, Symbol

#: compile_lattice refuses traces with more edges than this.  A lattice
#: stores 12 bytes of indices per edge, so 10^7 edges take 120 MB.  maximize
#: refuses more restarts times variables than this, the size of the ascent's
#: own arrays.
EDGE_CEILING = 10**7

#: the sweeps run at most max(1, PASS_ENTRIES // edges) weight rows per
#: pass, so each array of a pass (the schedule's three intp index arrays and
#: expected_counts' float64 tails) holds at most max(PASS_ENTRIES, edges)
#: entries: 2 MB in all below PASS_ENTRIES edges, one row of edges above it
#: (320 MB beside the lattice's 120 MB at EDGE_CEILING)
PASS_ENTRIES = 2**17

#: index arrays, the bulk of a lattice's memory, are stored narrow: moves
#: and edges stay under EDGE_CEILING, so every index fits
_INDEX = np.int32


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
        sums = [self.sweep(1.0, part).take(self.ends, axis=1) for part in self._passes(weights)]
        return np.concatenate(sums)

    def expected_counts(self, weights: np.ndarray, buffers=None) -> tuple[np.ndarray, np.ndarray]:
        """log p(theta) per row and x_p * d log p(theta) / d x_p for every
        variable.

        The first array is, per row, np.log(values).sum(axis=1) of the
        row's step sums, -inf where a step sum is 0.  The second is the
        expected number of times each production fires in a derivation
        drawn in proportion to its weight.  The forward sweep gathers each
        edge's tail straight into the tails; the backward sweep starts each
        step's end column at 1 / S_j and multiplies each tail by its edge's
        head in place, so an edge's mass is its share of its step sum, and
        one np.bincount of the flat tails over the schedule's variable ids
        gives every row's counts.  A step sum below the smallest normal
        double, where 1 / S_j would overflow, starts at 1 instead, and its
        edges' masses are divided by S_j afterwards.  In a row with a zero
        step sum, every variable with an edge in that step gets a
        non-finite count.

        Rows run in passes of at most max(1, PASS_ENTRIES // edges), whose
        results are concatenated.  Rows do not interact, each row's counts
        add its masses in edge order, and each row's log p adds the logs of
        its C-contiguous step sums in one order: a row's results do not
        depend on the rows beside it.

        buffers, a list that the calls of one solve on this lattice share,
        keeps the arrays that its first call makes: the schedule
        (_schedule) for that call's rows, at most one pass of them, and the
        tails in the schedule's layout.  A later call runs in them, each
        row of edges in a prefix of its block, and only a call of more rows
        than the schedule holds makes them again, for its own rows.  The
        arrays returned are new, never views of the buffers.
        """
        buffers = [] if buffers is None else buffers
        passes = self._passes(weights)
        if len(passes) > 1:
            parts = [self.expected_counts(part, buffers) for part in passes]
            return tuple(np.concatenate(arrays) for arrays in zip(*parts))
        rows, edges = len(weights), self.bounds[-1]
        if not buffers or len(buffers[1]) < rows * edges:
            buffers[:] = self._schedule(rows), np.zeros(rows * edges)
        schedule, tails = buffers

        def times_head(block: slice, head: np.ndarray) -> None:
            masses = tails[block]
            np.multiply(masses, head, out=masses)

        values = self.sweep(1.0, weights, schedule=schedule, tails=tails).take(self.ends, axis=1)
        small = values < np.finfo(float).tiny
        with np.errstate(divide="ignore", invalid="ignore"):
            self.sweep(1.0 / np.where(small, 1.0, values), weights, times_head, True, schedule)
            # the rows past this call's in a wider schedule go to sums' rows
            # past its own, which are dropped
            width = max(len(tails) // max(edges, 1), rows)
            if small.any():
                # column c of a step's lattice belongs to the step whose end
                # column is the first at or after c
                scale = np.ones((width, self.columns))
                step = np.searchsorted(self.ends, np.arange(self.columns))
                scale[:rows] = np.where(small, values, 1.0)[:, step]
                tails /= scale.ravel().take(schedule[1])
            stride = len(self.variables) + 1
            sums = np.bincount(schedule[2], tails, minlength=width * stride)[: rows * stride]
            return _log_p(values), weights * sums.reshape(rows, stride)[:, :-1]

    def sweep(
        self, start, weights, visit=None, backward=False, schedule=None, tails=None
    ) -> np.ndarray:
        """Move a table of shape (R, columns), in the dtype of weights and
        start, over the rows of edges and return it.

        The table starts at start in the steps' start columns forward, their
        end columns backward, 0 elsewhere, and the weights (R, V) gain a
        pass-through column of 1.  Forward, row i's edges carry
        table[src] * weight to dst, rows ascending, so table[r, c] becomes
        the weight of the prefixes that end at column c; backward, they carry
        table[dst] * weight to src, rows descending, for the suffixes that
        start at c.

        The R rows move as one flat table of R * columns entries, over a
        schedule (_schedule) of at least R restarts; each row of edges reads
        the first R * (hi - lo) entries of its block.  Without a schedule,
        one row reads the lattice's int32 ids, which np.take converts row by
        row at no more cost than converting them first, and more rows get a
        schedule of their own.  A row of edges gathers the table at its
        edges' near ends, into its block of tails (the schedule's layout)
        when given, and visit(block, entries) sees the entries, to keep or
        change in place; for one restart, block is the row's edge range.
        Then it gathers its edges' weights from the flat padded weights,
        multiplies, and adds what arrives at each flat column in one call
        for every restart: np.bincount in a float table, exactly np.add.at
        in an integer or object one.  What arrives overwrites the table.
        """
        rows = len(weights)
        dtype = np.result_type(weights.dtype, np.asarray(start).dtype)
        padded = np.concatenate((weights, np.ones((rows, 1), dtype)), axis=1).ravel()
        if schedule is None:
            schedule = (self.src, self.dst, self.var) if rows == 1 else self._schedule(rows)
        width = len(schedule[0]) // max(self.bounds[-1], 1)
        size = rows * self.columns
        table = np.zeros((rows, self.columns), dtype)
        table[:, self.ends if backward else self.starts] = start
        table = table.ravel()
        src, dst, var = schedule
        near, far = (dst, src) if backward else (src, dst)
        spans = list(zip(self.bounds, self.bounds[1:]))
        for lo, hi in reversed(spans) if backward else spans:
            block = slice(width * lo, width * lo + rows * (hi - lo))
            # the indices are in range: wrap skips take's bounds checks
            out = None if tails is None else tails[block]
            gathered = table.take(near[block], out=out, mode="wrap")
            if visit is not None:
                visit(block, gathered)
            moved = padded.take(var[block], mode="wrap")
            moved *= gathered
            if dtype.kind == "f" and moved.size:
                table = np.bincount(far[block], moved, minlength=size)
            else:  # exact, and np.bincount of nothing gives int64
                table = np.zeros(size, dtype)
                np.add.at(table, far[block], moved)
        return table.reshape(rows, self.columns)

    def _passes(self, weights: np.ndarray) -> list[np.ndarray]:
        """The weight rows in passes of at most max(1, PASS_ENTRIES // edges)
        rows; no rows make one empty pass."""
        rows = max(1, PASS_ENTRIES // max(self.bounds[-1], 1))
        return [weights[lo : lo + rows] for lo in range(0, len(weights), rows)] or [weights]

    def _schedule(self, restarts: int) -> np.ndarray:
        """The sweep's intp indices for a flat table of restarts rows: a
        (3, restarts * edges) array of the edges' src and dst columns, offset
        by r * columns, and variable ids, offset by r * (V + 1), for restart
        r.  Row i of edges takes the block [restarts * lo, restarts * hi) of
        each, restart after restart, so every restart's edges of a row sit
        together, and a sweep of fewer restarts reads a prefix of each
        block."""
        schedule = np.empty((3, restarts * self.bounds[-1]), np.intp)
        strides = np.array([self.columns, self.columns, len(self.variables) + 1], np.intp)
        shifts = strides[:, None, None] * np.arange(restarts)[:, None]
        for lo, hi in zip(self.bounds, self.bounds[1:]):
            block = schedule[:, restarts * lo : restarts * hi].reshape(3, restarts, hi - lo)
            for ids, array, shift in zip(block, (self.src, self.dst, self.var), shifts):
                np.add(array[lo:hi], shift, out=ids)
        return schedule


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
    sums = lattice.values(np.array([[prob.get(p, 0.0) for p in lattice.variables]]))
    return LogLinear(float(_log_p(sums)[0]), math.prod(sums[0].tolist()))


def _log_p(sums: np.ndarray) -> np.ndarray:
    """log p(theta) per row of step sums, the one place it is formed: the
    logs of the row's sums added by numpy's pairwise sum, so it survives
    underflow of the product; a zero sum gives -inf and a NaN gives NaN."""
    with np.errstate(divide="ignore"):
        return np.log(sums).sum(axis=1)
