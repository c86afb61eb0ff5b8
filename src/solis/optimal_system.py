"""Best stochastic system: which probability assignment maximizes p(theta)?

The objective is p(theta) viewed as a polynomial in one variable per free
production, a posynomial whose monomials are derivation count-multisets.
Every monomial has degree n_a within predecessor a's variable block, where
n_a counts the occurrences of a in w_0 .. w_{m-1} (each occurrence is
rewritten exactly once), so the feasible set is a product of per-predecessor
simplices.

The solver is expectation-maximization (Baum-Welch): the E-step computes,
on the step lattice, the expected number of times each production fires in a
derivation drawn in proportion to its probability under x,
E[count_p] = x_p * d log p(theta) / d x_p; the M-step sets
x_p' = E[count_p] / n_a.  By homogeneity the counts of block a sum to n_a,
which the solver checks every iteration.  EM never decreases p(theta), and
the solver tracks log p(theta), which survives underflow of the linear
value on long traces.

Plain EM crawls where most of a block's mass starts on productions the
optimum drops, so the update is over-relaxed (adaptive overrelaxed bound
optimization, Salakhutdinov & Roweis 2003): a restart moves to
x_p * (x_p' / x_p) ** eta, renormalized per block, and eta grows by
OVERRELAX_GROWTH after every update.  A step that would lower log p(theta)
is replaced by the plain EM step and eta drops back to 1, so the ascent
stays monotone.  Maximization is not convex, so the solver multi-restarts
and certifies nothing beyond monotone ascent; tests compare it against grid
search on small instances.
"""

from __future__ import annotations

from itertools import groupby
from typing import Mapping, NamedTuple

import numpy as np

from .errors import CapExceeded
from .lattice import EDGE_CEILING, StepLattice, free_lattice, lattice_probability
from .model import (
    LogLinear,
    Production,
    S0LSystem,
    Sequence,
    Symbol,
    _checked,
    occurrence_counts,
    system_over,
)

#: skip monomial expansion when the derivation space is larger than this
DEFAULT_EXPANSION_CAP = 10_000

#: relative tolerance of the check that each block's expected counts sum to n_a
BLOCK_COUNT_TOL = 1e-9

#: a restart stops once an update moves log p(theta) by at most this many
#: nats, and restarts whose final log p lie within it of the highest tie;
#: doubles near log p = -700 lie 1.1e-13 apart, so rounding neither keeps a
#: restart at its optimum from stopping nor picks the winner among equal optima
REL_TOL = 1e-10

#: assemble_system drops solver weights below this: EM shrinks a production
#: that the optimum leaves out geometrically, but never to 0
PRUNE_EPS = 1e-9

#: factor by which a restart's over-relaxation exponent grows after each
#: update; on 40 sampled 120-step traces of A -> A|B, B -> A|B (1/2 each),
#: two restarts pass the generator's log p within 13 updates this way,
#: where plain EM needs about 30
OVERRELAX_GROWTH = 1.5


class Monomial(NamedTuple):
    """coefficient * prod variable^exponent; exponents sorted canonically."""

    coefficient: int
    exponents: tuple[tuple[Production, int], ...]


class PosynomialObjective(NamedTuple):
    """p(theta) as a polynomial over the free system's production variables.

    The factored form (theta's step lattice over the free system's
    productions) is always available; the expanded monomial list is only
    populated when the derivation space fits under the expansion cap.
    """

    theta: Sequence
    monomials: tuple[Monomial, ...] | None
    lattice: StepLattice

    @property
    def variables(self) -> tuple[Production, ...]:
        return self.lattice.variables

    @property
    def blocks(self) -> dict[Symbol, tuple[Production, ...]]:
        """The variables of each predecessor: the lattice's variables are
        in canonical order, so each block is a contiguous run of them."""
        return {a: tuple(block) for a, block in groupby(self.variables, lambda p: p.predecessor)}


class _SolverConfigFields(NamedTuple):
    restarts: int
    max_iters: int
    seed: int


class SolverConfig(_SolverConfigFields):
    __slots__ = ()
    _make = classmethod(_checked)

    def __new__(cls, restarts: int = 16, max_iters: int = 5000, seed: int = 0) -> "SolverConfig":
        if restarts < 1:
            raise ValueError("restarts must be positive")
        if max_iters < 1:
            raise ValueError("max_iters must be positive")
        if seed < 0:
            raise ValueError("seed must be non-negative")
        return super().__new__(cls, restarts, max_iters, seed)


class RestartTrace(NamedTuple):
    """log p(theta) at the start and after each update of one restart.

    `converged` is set when the restart stopped on |delta log p| <= REL_TOL;
    a restart that hit max_iters, or reached a point where p(theta) is 0,
    stops with it unset.  values is a list, so a trace is not hashable.
    """

    restart: int
    values: list[float]
    converged: bool = False

    @property
    def iterations(self) -> int:
        return len(self.values) - 1


def build_objective(theta: Sequence, cap: int = DEFAULT_EXPANSION_CAP) -> PosynomialObjective:
    """Objective for theta over its free system's productions.

    Monomials are derivation count multisets, each with the number of
    derivations that share it as coefficient, in ascending order of their
    exponent lists; they are listed only when the derivation space fits under
    cap (pass cap=0 to skip expansion, e.g. when only the factored form is
    needed).  The factored form never fails.
    """
    lattice = free_lattice(theta)
    monomials: tuple[Monomial, ...] | None = None
    if cap > 0:
        from .derivations import count_multisets  # only expansion lists multisets

        try:
            table = count_multisets(lattice, theta, cap)
        except CapExceeded:
            monomials = None
        else:
            grouped = sorted(
                (table.counts(i), coefficient)
                for i, coefficient in enumerate(table.multiplicity.tolist())
            )
            monomials = tuple(
                Monomial(coefficient, tuple((lattice.variables[k], c) for k, c in counts))
                for counts, coefficient in grouped
            )
    return PosynomialObjective(theta=theta, monomials=monomials, lattice=lattice)


def maximize(
    obj: PosynomialObjective, cfg: SolverConfig | None = None
) -> tuple[dict[Production, float], int, tuple[RestartTrace, ...]]:
    """Multi-restart over-relaxed EM over the product of simplices.

    Restart 0 starts uniform per block; the rest start at random interior
    points drawn via normalized exponentials with per-restart seeds derived
    from cfg.seed.  All restarts advance together in one ascent, whose
    kernel calls take every active restart at once; each restart stops on
    its own once |delta log p| <= REL_TOL, and cfg.max_iters bounds the
    updates.
    Within a restart the objective never decreases; across restarts the
    earliest restart whose final log p is within REL_TOL of the highest
    wins, so float noise between restarts that reach the same optimum does
    not pick the winner.  Returns the winning point, the winner's index
    into the traces, and one trace per restart; traces[best].values[-1] is
    the winner's log p(theta).

    An objective without variables, that of a trace of empty words, has
    one point, the empty system, where p(theta) = 1: every restart starts
    there and stops converged, after no update.  The ascent holds several
    (restarts, variables) arrays, so more restarts times variables than
    EDGE_CEILING raise CapExceeded before any start point is drawn.

    Every start point is interior, where the free system derives the trace
    and p(theta) > 0, so a final log p of -inf at every restart means that
    p(theta) underflowed a double: that raises ArithmeticError, as does a
    block whose expected counts miss its occurrences.
    """
    cfg = cfg or SolverConfig()
    if not obj.variables:
        return {}, 0, tuple(RestartTrace(r, [0.0], True) for r in range(cfg.restarts))
    entries = cfg.restarts * len(obj.variables)
    if entries > EDGE_CEILING:
        message = (
            f"{cfg.restarts} restarts of {len(obj.variables)} variables would hold"
            f" {entries} entries per array, ceiling is {EDGE_CEILING}"
        )
        raise CapExceeded(message, count=entries, cap=EDGE_CEILING)
    sizes = [len(block) for block in obj.blocks.values()]
    start = np.array([_start_point(sizes, cfg, restart) for restart in range(cfg.restarts)])
    x, traces = _ascend(obj, start, cfg)
    floor = max(trace.values[-1] for trace in traces) - REL_TOL
    if floor == -np.inf:
        raise ArithmeticError("p(theta) underflows a double at every start")
    best = next(r for r, trace in enumerate(traces) if trace.values[-1] >= floor)
    return dict(zip(obj.variables, x[best].tolist())), best, traces


def infer_optimal_system(
    theta: Sequence, cfg: SolverConfig | None = None
) -> tuple[S0LSystem, LogLinear]:
    """Solve for the system maximizing p(theta) and package it.

    Runs the solver on the factored objective, assembles the surviving
    productions into a system, and reports p(theta) under that system.
    Raises maximize's ArithmeticError where p(theta) leaves a double's
    range.
    """
    cfg = cfg or SolverConfig()
    obj = build_objective(theta, cap=0)
    x_star, _, _ = maximize(obj, cfg)
    system = assemble_system(obj, x_star)
    return system, lattice_probability(obj.lattice, system.prob)


def assemble_system(obj: PosynomialObjective, x_star: Mapping[Production, float]) -> S0LSystem:
    """Turn a solver point into a stochastic system for obj's trace.

    Drops productions below PRUNE_EPS, renormalizes each block, and gives
    symbols that occur only in the last word (hence are never rewritten) the
    identity rule a -> a, marked as a default.  Every block keeps at least
    its largest entry, so renormalization is always well defined.
    """
    prob: dict[Production, float] = {}
    for block in obj.blocks.values():
        survivors = [p for p in block if x_star[p] >= PRUNE_EPS]
        if not survivors:
            survivors = [max(block, key=lambda p: x_star[p])]
        total = sum(x_star[p] for p in survivors)
        for p in survivors:
            prob[p] = x_star[p] / total
    theta = obj.theta
    occurrences = occurrence_counts(theta)
    defaults: list[Production] = []
    for symbol in sorted(theta.symbols()):
        if occurrences[symbol] == 0:
            identity = Production(symbol, (symbol,))
            prob[identity] = 1.0
            defaults.append(identity)
    return S0LSystem(base=system_over(theta, prob), prob=prob, defaults=frozenset(defaults))


def _start_point(sizes: list[int], cfg: SolverConfig, restart: int) -> np.ndarray:
    """Restart 0's point, uniform per block of the given sizes, or another
    restart's, drawn from its own seed."""
    if restart == 0:
        return np.concatenate([np.full(size, 1.0 / size) for size in sizes])
    rng = np.random.default_rng([cfg.seed, restart])
    parts = []
    for size in sizes:
        draws = rng.exponential(size=size)
        total = float(draws.sum())
        if total == 0.0:
            draws, total = np.ones(size), float(size)
        parts.append(draws / total)
    return np.concatenate(parts)


def _ascend(
    obj: PosynomialObjective, x: np.ndarray, cfg: SolverConfig
) -> tuple[np.ndarray, tuple[RestartTrace, ...]]:
    """Run over-relaxed EM from each row of x, restart r from row r; returns
    the final points and one trace per row.  A row stops changing once it
    converges, hits max_iters or reaches a point where p(theta) is 0.  The
    kernel bounds its own pass memory and gives each row the results it
    would give that row alone, so a restart's trace does not depend on the
    restarts beside it."""
    blocks = obj.blocks
    symbols = list(blocks)
    sizes = [len(block) for block in blocks.values()]
    occurrences = occurrence_counts(obj.theta)
    block_counts = np.array([occurrences[symbol] for symbol in symbols], dtype=float)
    variable_counts = np.repeat(block_counts, sizes)
    block_starts = np.cumsum([0] + sizes[:-1])
    buffers: list[np.ndarray] = []  # the kernel's schedule and tails, kept across its calls
    log_p, counts = obj.lattice.expected_counts(x, buffers)
    history = [[v] for v in log_p.tolist()]
    converged = np.zeros(len(x), bool)
    eta = np.ones(len(x))
    active = np.arange(len(x))
    for iteration in range(1, cfg.max_iters + 1):
        # where p(theta) is 0 the expected counts are undefined
        active = active[log_p[active] > -np.inf]
        if not active.size:
            break
        totals = np.add.reduceat(counts[active], block_starts, axis=1)
        wrong = ~(np.abs(totals - block_counts) <= BLOCK_COUNT_TOL * block_counts)
        if wrong.any():
            r, b = np.argwhere(wrong)[0]
            raise ArithmeticError(
                f"iteration {iteration}, restart {active[r]}: expected counts of "
                f"{symbols[b]!r} sum to {float(totals[r, b])!r}, not its "
                f"{int(block_counts[b])} occurrences"
            )
        em = counts[active] / variable_counts
        step = em.copy()
        bold = eta[active] > 1.0
        step[bold] = _overrelax(
            x[active][bold], em[bold], eta[active][bold], block_starts, sizes
        )
        step_log_p, step_counts = obj.lattice.expected_counts(step, buffers)
        # an over-relaxed step that lowers log p (or is not finite) gives way to EM
        lost = bold & ~(step_log_p >= log_p[active])
        if lost.any():
            step[lost] = em[lost]
            step_log_p[lost], step_counts[lost] = obj.lattice.expected_counts(em[lost], buffers)
        eta[active] = np.where(lost, 1.0, eta[active] * OVERRELAX_GROWTH)
        x[active], counts[active] = step, step_counts
        previous = log_p[active]
        log_p[active] = step_log_p
        for r, value in zip(active.tolist(), log_p[active].tolist()):
            history[r].append(value)
        done = np.abs(log_p[active] - previous) <= REL_TOL
        converged[active[done]] = True
        active = active[~done]
    return x, tuple(
        RestartTrace(r, logs, stopped)
        for r, (logs, stopped) in enumerate(zip(history, converged.tolist()))
    )


def _overrelax(
    x: np.ndarray, em: np.ndarray, eta: np.ndarray, block_starts: np.ndarray, sizes: list[int]
) -> np.ndarray:
    """x * (em / x) ** eta per row, renormalized per block; computed in log
    space, so that a large eta neither overflows nor underflows a block to
    all zeros.  Entries where em is 0 stay 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        log_em = np.log(em)
        ratio = log_em - np.log(x)
        log_step = np.where(em > 0.0, log_em + (eta[:, None] - 1.0) * ratio, -np.inf)
    peak = np.maximum.reduceat(log_step, block_starts, axis=1)
    step = np.exp(log_step - np.repeat(peak, sizes, axis=1))
    return step / np.repeat(np.add.reduceat(step, block_starts, axis=1), sizes, axis=1)
