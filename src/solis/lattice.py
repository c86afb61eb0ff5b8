"""The step lattice: p(theta)'s per-step dynamic program compiled to arrays,
and p(theta) and its gradients computed on it.

One rewriting step x => y is a path problem.  Column k of the step means
"the positions rewritten so far produced y[:k]", and position i of x moves
from column s to column e by the production x[i] -> y[s:e].  Compiling a
trace turns every such move into an integer edge (src column, dst column,
variable id), grouped into rows by i.  Steps are independent, so row i of
every step runs in the same pass: the kernel makes max_j |w_j| sequential
row passes, not sum_j |w_j|.  A step with fewer positions than the current
row carries its end column forward along a pass-through edge of weight 1.

Forward, backward and expected counts are gathers, multiplies and
np.bincount scatters over an (R, V) weight matrix, one row per weighting, so
the solver's R restarts advance in the same pass.  Every array a pass makes
is laid out (R, ...), and a scatter is one np.bincount per restart over a
stored slice of the edge arrays, so no flat index is built per call.  The
forward pass keeps the table entries it gathers at each edge's src column,
and the backward pass multiplies them by those it gathers at the edge's dst
column: the product is the edge's share of its step sum, and one scatter of
these shares gives the partial derivatives.  Within every sum the terms
arrive in the order of the textbook recurrences (rows ascending, then
successor length, then column), so the results do not depend on how many
rows are batched.

sequence_probability, step_values, step_gradients and probability_gradient
compile a lattice over the nonzero weights of one weighting and run it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .errors import CapExceeded
from .model import LogLinear, Production, S0LSystem, Sequence, Symbol, Word

#: index arrays are stored narrow: they are the bulk of a lattice's memory
_INDEX = np.int32

#: compile_lattice refuses traces with more edges than this.  A lattice
#: stores 16 bytes of indices per edge, and a pass of the kernel holds
#: float64 arrays of one entry per edge and restart, so the solver runs
#: at most EDGE_CEILING / edges restarts per pass: 10^7 edges take 160 MB to
#: store, and a pass holds arrays of at most 10^7 entries at any restarts.
EDGE_CEILING = 10**7


@dataclass(frozen=True, eq=False)
class StepLattice:
    """Edges of every step of one trace over a fixed list of variables.

    Edge arrays are sorted by (row, step, successor length, src column); the
    edges of row i are those in [bounds[i], bounds[i + 1]).  var == len(variables)
    marks a pass-through edge.  A (step, variable) pair indexes the partial
    derivative of one step sum; pairs are sorted by (variable, step), and
    pair[e] == len(pair_var) for pass-through edges.
    """

    variables: tuple[Production, ...]
    columns: int
    starts: np.ndarray
    ends: np.ndarray
    bounds: tuple[int, ...]
    src: np.ndarray
    dst: np.ndarray
    var: np.ndarray
    pair: np.ndarray
    pair_step: np.ndarray
    pair_var: np.ndarray

    def values(self, weights: np.ndarray) -> np.ndarray:
        """Per-step sums, shape (R, steps), for weights of shape (R, V)."""
        return self._forward(_with_pass_through(weights))

    def slopes(self, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-step sums and, per (step, variable) pair, the step sum's
        partial derivative in that variable: shapes (R, steps), (R, pairs)."""
        padded = _with_pass_through(weights)
        tails: list[np.ndarray] = []
        values = self._forward(padded, tails)
        mass = self._backward(padded, tails)
        return values, _scatter(self.pair, mass, len(self.pair_var) + 1)[:, :-1]

    def expected_counts(self, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-step sums and x_p * d log p(theta) / d x_p for every variable.

        The second array is the expected number of times each production
        fires in a derivation drawn in proportion to its weight.  A row with
        a zero step sum gets non-finite counts.
        """
        values, slopes = self.slopes(weights)
        with np.errstate(divide="ignore", invalid="ignore"):
            per_step = slopes / values[:, self.pair_step]
            return values, weights * _scatter(self.pair_var, per_step, len(self.variables))

    # The passes keep every per-row array contiguous (numpy multiplies
    # strided 2-D slices of an (R, edges) array several times slower), and
    # each gathers its edge weights from the small (R, V + 1) matrix rather
    # than keeping an (R, edges) copy: that reads faster at large R and
    # saves the memory.

    def _forward(self, padded: np.ndarray, tails: list[np.ndarray] | None = None) -> np.ndarray:
        """Per-step sums, shape (R, steps).

        After row i, table[r, c] is the weight of rewriting the first i
        positions of each step into the prefix of its target that ends at
        column c.  If tails is given, it receives per row the table entries
        at the edges' src columns: the weight of everything before each edge.
        """
        table = np.zeros((len(padded), self.columns))
        table[:, self.starts] = 1.0
        for lo, hi in zip(self.bounds, self.bounds[1:]):
            tail = table.take(self.src[lo:hi], axis=1)
            if tails is not None:
                tails.append(tail)
            moved = tail * padded.take(self.var[lo:hi], axis=1)
            table = _scatter(self.dst[lo:hi], moved, self.columns)
        return table[:, self.ends]

    def _backward(self, padded: np.ndarray, tails: list[np.ndarray]) -> np.ndarray:
        """Edge masses, shape (R, edges): each edge's tail, popped from the
        forward pass's list, times the weight of everything after the edge.
        A mass is the edge's share of its step sum.

        Before row i, table[r, c] is the weight of rewriting positions i+1..
        of each step into the suffix of its target that starts at column c.
        """
        table = np.zeros((len(padded), self.columns))
        table[:, self.ends] = 1.0
        mass = np.empty((len(padded), self.bounds[-1]))
        for lo, hi in reversed(list(zip(self.bounds, self.bounds[1:]))):
            head = table.take(self.dst[lo:hi], axis=1)
            tail = tails.pop()
            tail *= head
            mass[:, lo:hi] = tail
            moved = padded.take(self.var[lo:hi], axis=1)
            moved *= head
            table = _scatter(self.src[lo:hi], moved, self.columns)
        return mass


def compile_lattice(theta: Sequence, variables: Iterable[Production]) -> StepLattice:
    """Compile every step of theta over the given productions.

    Productions that fit no step simply contribute no edges; a step that no
    combination of them can perform gets a zero sum.  Raises CapExceeded,
    before the edge arrays are assembled, when the lattice would hold more
    than EDGE_CEILING edges.
    """
    variables = tuple(variables)
    by_successor: dict[Word, list[tuple[Symbol, int]]] = {}
    for index, production in enumerate(variables):
        by_successor.setdefault(production.successor, []).append(
            (production.predecessor, index)
        )
    lengths = sorted({len(p.successor) for p in variables})
    steps = list(theta.steps())
    # The moves of each step per predecessor: (3, k) arrays of (successor
    # length, src column, var), sorted by length, then src.
    moves: list[dict[Symbol, np.ndarray]] = []
    starts = []
    offset = 0
    for x, y in steps:
        present = set(x)
        found: dict[Symbol, list[int]] = {}
        for length in lengths:
            for s in range(len(y) - length + 1):
                for a, index in by_successor.get(y[s : s + length], ()):
                    if a in present:
                        found.setdefault(a, []).extend((length, offset + s, index))
        moves.append({a: np.array(flat, _INDEX).reshape(-1, 3).T for a, flat in found.items()})
        starts.append(offset)
        offset += len(y) + 1
    ends = [start + len(y) for start, (_, y) in zip(starts, steps)]

    # one pair per (variable, step) that has a move, numbered in that order
    keys = [
        m[2].astype(np.int64) * len(steps) + j for j, ms in enumerate(moves) for m in ms.values()
    ]
    unique, inverse = np.unique(
        np.concatenate([np.zeros(0, np.int64)] + keys), return_inverse=True
    )
    pieces = iter(np.split(inverse.astype(_INDEX), np.cumsum([k.size for k in keys])[:-1]))
    for ms in moves:
        for a, m in ms.items():
            ms[a] = np.vstack((m, next(pieces)))

    # per row, one (4, k) array of (length, src, var, pair) per step
    rows = max(len(x) for x, _ in steps)
    per_row: list[list[np.ndarray]] = [[] for _ in range(rows)]
    for (x, _), ms, start, end in zip(steps, moves, starts, ends):
        for i, a in enumerate(x):
            if a not in ms:
                continue
            edges = ms[a]
            # the first position starts at column 0 of its step, the last one ends at n
            if i == 0:
                edges = edges[:, edges[1] == start]
            if i == len(x) - 1:
                edges = edges[:, edges[0] + edges[1] == end]
            per_row[i].append(edges)
        through = np.array([[0], [end], [len(variables)], [unique.size]], _INDEX)
        for i in range(len(x), rows):
            per_row[i].append(through)
    sizes = [sum(edges.shape[1] for edges in row) for row in per_row]
    check_edge_count(sum(sizes))
    length, src, var, pair = np.concatenate(
        [np.zeros((4, 0), _INDEX)] + [edges for row in per_row for edges in row], axis=1
    )
    return StepLattice(
        variables=variables,
        columns=offset,
        starts=np.array(starts, _INDEX),
        ends=np.array(ends, _INDEX),
        bounds=tuple(np.cumsum([0] + sizes).tolist()),
        src=src,
        dst=src + length,
        var=var,
        pair=pair,
        pair_step=(unique % len(steps)).astype(_INDEX),
        pair_var=(unique // len(steps)).astype(_INDEX),
    )


def check_edge_count(edges: int) -> None:
    """Raise CapExceeded if a lattice of this many edges passes EDGE_CEILING."""
    if edges > EDGE_CEILING:
        raise CapExceeded(
            f"step lattice would hold {edges} edges, ceiling is {EDGE_CEILING}",
            count=edges,
            cap=EDGE_CEILING,
        )


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


def _with_pass_through(weights: np.ndarray) -> np.ndarray:
    """weights with a column of ones appended, the weight of var == V."""
    return np.concatenate((weights, np.ones((len(weights), 1))), axis=1)


def _scatter(index: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """Bincount per row: out[r, c] is the sum of values[r, e] over the edges
    e with index[e] == c, added in edge order starting from 0.0."""
    out = np.empty((values.shape[0], size))
    index = index.astype(np.intp)  # once, not once per np.bincount call
    for r, row in enumerate(values):
        out[r] = np.bincount(index, row, minlength=size)
    return out
