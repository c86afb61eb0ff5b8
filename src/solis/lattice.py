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

Compiling turns the moves that the moves module lists into edges.  The
free system's productions are the distinct moves (free_lattice);
compile_lattice keeps the moves of the given productions, so its edges are
the free lattice's edges over them, in the same order.

sequence_probability, step_values, step_gradients and probability_gradient
compile a lattice over the nonzero weights of one weighting and run it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .errors import CapExceeded
from .model import LogLinear, Production, S0LSystem, Sequence
from .moves import Moves, list_moves

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
    derivative of one step sum; there is one pair per distinct (variable,
    step) of the edges, pairs are sorted by (variable, step), and
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
        fires in a derivation drawn in proportion to its weight.  In a row
        with a zero step sum, every variable with an edge in that step gets
        a non-finite count.
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

    Lists the moves of every position over the substrings of the variables'
    successor lengths (moves.list_moves), finds each move's (predecessor,
    substring) key among the variables' sorted keys, and keeps the moves
    that match one: the lattice holds exactly the free lattice's edges whose
    production is a variable, in the same order, and one pair per distinct
    (variable, step) of its moves.  Productions that fit no step contribute
    no edges; a step that no combination of them can perform gets a zero
    sum.  Raises ValueError if a production is listed twice, and
    CapExceeded, before the edge arrays are assembled, when the lattice
    would hold more than EDGE_CEILING edges.
    """
    variables = tuple(variables)
    successors = [p.successor for p in variables]
    moves, key, step = list_moves(theta, set(map(len, successors)))
    known = moves.keys([p.predecessor for p in variables], successors)
    order = np.argsort(known)[np.count_nonzero(known < 0) :]
    known = known[order]
    if (known[1:] == known[:-1]).any():
        raise ValueError("a production is listed twice among the variables")
    at = np.searchsorted(known, key)
    keep = at < known.size
    keep[keep] = known[at[keep]] == key[keep]
    var = order[at[keep]]
    steps = len(moves.starts)
    pair_keys, pair = np.unique(var * steps + step[keep], return_inverse=True)
    del key, step, at
    var = _closed(var, len(variables), steps)
    pair = _closed(pair, pair_keys.size, steps)
    return _assemble(moves, variables, keep, var, pair, pair_keys // steps, pair_keys % steps)


def free_lattice(theta: Sequence) -> StepLattice:
    """The lattice over theta's free system, whose variables are the free
    productions in canonical order.  The caller checks the edge count and
    the steps' compatibility first (see free_system.build_free_lattice)."""
    return _assemble(*_free_moves(theta))


def free_productions(theta: Sequence) -> tuple[Production, ...]:
    """theta's free productions in canonical order, without the lattice's
    edges."""
    return _free_moves(theta)[1]


def _free_moves(theta: Sequence) -> tuple:
    """The arguments of _assemble for the free lattice: the moves over any
    substring, the free productions (their distinct keys), and each move's
    variable and pair.

    Substring ids are ranks in sorted order and predecessor codes are ranks
    of the sorted symbols, so one np.unique of the moves' (predecessor,
    substring, step) keys sorts the pairs by (variable, step) and numbers
    the variables canonically.
    """
    moves, key, step = list_moves(theta, None)
    steps = len(moves.starts)
    pair_keys, pair = np.unique(key * steps + step, return_inverse=True)
    del key, step
    pair = _closed(pair, pair_keys.size, steps)
    owner = pair_keys // steps
    new = np.ones(owner.size, bool)
    new[1:] = owner[1:] != owner[:-1]
    pair_var = np.cumsum(new) - 1
    variables = moves.productions(owner[new])
    var = _closed(pair_var, len(variables), 1)[pair]
    return moves, variables, None, var, pair, pair_var, pair_keys % steps


def _assemble(
    moves: Moves,
    variables: tuple[Production, ...],
    keep: np.ndarray | None,
    var: np.ndarray,
    pair: np.ndarray,
    pair_var: np.ndarray,
    pair_step: np.ndarray,
) -> StepLattice:
    """The lattice of the moves where keep is set (all if None).  var and
    pair give each kept move's variable and pair, then the pass-through
    moves' len(variables) and len(pair_var)."""
    bounds, src, dst, edge = moves.edges(keep, check_edge_count)
    return StepLattice(
        variables=variables,
        columns=int(moves.ends[-1]) + 1,
        starts=moves.starts,
        ends=moves.ends,
        bounds=bounds,
        src=src,
        dst=dst,
        var=var[edge],
        pair=pair[edge],
        pair_step=pair_step.astype(_INDEX),
        pair_var=pair_var.astype(_INDEX),
    )


def _closed(values: np.ndarray, fill: int, count: int) -> np.ndarray:
    """values, then count copies of fill (one per pass-through move), as int32."""
    out = np.empty(values.size + count, _INDEX)
    out[: values.size] = values
    out[values.size :] = fill
    return out


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
    return log_linear(step_values(g.prob, theta))


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
