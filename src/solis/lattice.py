"""The step lattice: p(theta)'s per-step dynamic program compiled to arrays,
and p(theta) and its expected counts computed on it.

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
and the backward pass, which starts each step's end column at 1 / S_j (the
scaled backward pass of Rabiner 1989), multiplies them by those it gathers
at the edge's dst column: the product is the edge's share of its step sum,
and one scatter of these shares gives the expected counts.  Within every
sum the terms arrive in the order of the textbook recurrences (rows
ascending, then successor length, then column), so the results do not
depend on how many rows are batched.

Compiling turns the moves that the moves module lists into edges.  The
free system's productions are the distinct moves, the variables of
free_lattice, and every answer runs on that lattice: the solver iterates on
it, and the derivation tables read their steps' assignments off it.
compile_lattice keeps the moves of the given productions, so its edges are
the free lattice's edges over them, in the same order; only
sequence_probability and enumerate_derivations, which are given a system,
compile one.  lattice_probability scores a probability map on any lattice.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .errors import CapExceeded, IncompatibleSequence
from .model import LogLinear, Production, S0LSystem, Sequence
from .moves import Moves, list_moves

#: index arrays are stored narrow: they are the bulk of a lattice's memory
_INDEX = np.int32

#: compile_lattice refuses traces with more edges than this.  A lattice
#: stores 12 bytes of indices per edge, and a pass of the kernel holds
#: float64 arrays of one entry per edge and restart, so the solver runs
#: at most EDGE_CEILING / edges restarts per pass: 10^7 edges take 120 MB to
#: store, and a pass holds arrays of at most 10^7 entries at any restarts.
EDGE_CEILING = 10**7


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
        return self._forward(_with_pass_through(weights))

    def expected_counts(self, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-step sums and x_p * d log p(theta) / d x_p for every variable.

        The second array is the expected number of times each production
        fires in a derivation drawn in proportion to its weight.  The
        backward pass starts each step's end column at 1 / S_j, so an edge's
        mass is its share of its step sum and one scatter gives the counts.
        A step sum below the smallest normal double, where 1 / S_j would
        overflow, starts at 1 instead, and its edges' masses are divided by
        S_j afterwards.  In a row with a zero step sum, every variable with
        an edge in that step gets a non-finite count.
        """
        padded = _with_pass_through(weights)
        tails: list[np.ndarray] = []
        values = self._forward(padded, tails)
        small = values < np.finfo(float).tiny
        with np.errstate(divide="ignore", invalid="ignore"):
            mass = self._backward(padded, tails, 1.0 / np.where(small, 1.0, values))
            if small.any():
                # the edges of step j are those with dst in [starts[j], ends[j]]
                mass /= np.where(small, values, 1.0)[:, np.searchsorted(self.ends, self.dst)]
            return values, weights * _scatter(self.var, mass, len(self.variables) + 1)[:, :-1]

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

    def _backward(
        self, padded: np.ndarray, tails: list[np.ndarray], scale: np.ndarray
    ) -> np.ndarray:
        """Edge masses, shape (R, edges): each edge's tail, popped from the
        forward pass's list, times the weight of everything after the edge,
        times its step's scale (shape (R, steps)).

        Before row i, table[r, c] is the scaled weight of rewriting
        positions i+1.. of each step into the suffix of its target that
        starts at column c.
        """
        table = np.zeros((len(padded), self.columns))
        table[:, self.ends] = scale
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
    production is a variable, in the same order.  Productions that fit no
    step contribute no edges; a step that no combination of them can
    perform gets a zero sum.  Raises ValueError if a production is listed
    twice, and CapExceeded, before the edge arrays are assembled, when the
    lattice would hold more than EDGE_CEILING edges.
    """
    variables = tuple(variables)
    successors = [p.successor for p in variables]
    moves, key = list_moves(theta, set(map(len, successors)))
    known = moves.keys([p.predecessor for p in variables], successors)
    order = np.argsort(known)[np.count_nonzero(known < 0) :]
    known = known[order]
    if (known[1:] == known[:-1]).any():
        raise ValueError("a production is listed twice among the variables")
    at = np.searchsorted(known, key)
    keep = at < known.size
    keep[keep] = known[at[keep]] == key[keep]
    var = order[at[keep]]
    del key, at
    return _assemble(moves, variables, keep, _closed(var, len(variables), len(moves.starts)))


def free_lattice(theta: Sequence) -> StepLattice:
    """The lattice over theta's free system, whose variables are the free
    productions (the distinct moves) in canonical order.  Raises
    CapExceeded, before listing any move (a cubic cost in the word
    lengths), when the lattice would pass EDGE_CEILING, then
    IncompatibleSequence if some w_i is empty while w_{i+1} is not (with
    the 1-based step index).

    Substring ids are ranks in sorted order and predecessor codes are ranks
    of the sorted symbols, so one np.unique of the moves' (predecessor,
    substring) keys numbers the variables canonically.
    """
    check_edge_count(_free_edges(theta))
    for index, (x, y) in enumerate(theta.steps(), start=1):
        if y and not x:
            message = f"step {index} is impossible: empty word cannot derive a non-empty word"
            raise IncompatibleSequence(message, step=index)
    moves, key = list_moves(theta, None)
    owners, var = np.unique(key, return_inverse=True)
    del key
    variables = moves.productions(owners)
    return _assemble(moves, variables, None, _closed(var, len(variables), len(moves.starts)))


def _free_edges(theta: Sequence) -> int:
    """Edges of the free lattice, from word lengths: a lone position of a
    step x => y moves to all of y, the first and the last of several to
    any of the |y| + 1 prefixes and suffixes, and an interior one to any
    substring; a step with fewer positions than the longest source adds one
    pass-through edge per missing position."""
    rows = max(len(x) for x, _ in theta.steps())
    edges = 0
    for x, y in theta.steps():
        m, n = len(x), len(y)
        edges += rows - m
        if m == 1:
            edges += 1
        elif m > 1:
            edges += 2 * (n + 1) + (m - 2) * (n + 1) * (n + 2) // 2
    return edges


def _assemble(
    moves: Moves,
    variables: tuple[Production, ...],
    keep: np.ndarray | None,
    var: np.ndarray,
) -> StepLattice:
    """The lattice of the moves where keep is set (all if None).  var gives
    each kept move's variable, then the pass-through moves' len(variables)."""
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

    Computed per step on the lattice of theta over g's productions and
    combined in log space, so the log survives underflow of the linear
    value.  Incompatible sequences give (-inf, 0.0).
    """
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
