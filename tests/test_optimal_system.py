"""The posynomial objective and the over-relaxed EM solver.

Oracles here: hand-expanded polynomials for the worked examples, exhaustive
grid search (coarse pass plus local refinement) on instances with few
variables, and dominance over large batches of random feasible points.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import SMALL_TRACES, make_system, random_sequence
from oracles import evaluate_monomials
from solis import optimal_system
from solis import (
    Monomial,
    Production,
    RestartTrace,
    Sequence,
    SolverConfig,
    assemble_system,
    build_free_system,
    build_objective,
    count_productions,
    enumerate_derivations,
    infer_optimal_system,
    maximize,
    occurrence_counts,
    sample_sequence,
    sequence_probability,
)

A_EPS = Production("A", ())
A_A = Production("A", ("A",))
A_AB = Production("A", ("A", "B"))
A_BA = Production("A", ("B", "A"))
A_ABA = Production("A", ("A", "B", "A"))


def underflowing_trace():
    """120 steps of ten symbols from A -> A|B, B -> A|B; p(theta) underflows."""
    g = make_system(
        "ABABABABAB",
        {("A", "A"): 0.5, ("A", "B"): 0.5, ("B", "A"): 0.5, ("B", "B"): 0.5},
    )
    theta = sample_sequence(g, steps=120, seed=0).sequence
    return theta, sequence_probability(g, theta)


def objective_values(obj, points):
    """p(theta) at each row of points, one column per variable of obj."""
    return np.prod(obj.lattice.values(np.asarray(points, dtype=float)), axis=1)


def row(obj, x):
    """The mapping x as a row over obj's variables; missing ones count 0."""
    return [x.get(p, 0.0) for p in obj.variables]


def best_value(traces, best):
    """The winning restart's linear p(theta)."""
    return math.exp(traces[best].values[-1])


def random_feasible_point(obj, rng):
    x = {}
    for block in obj.blocks.values():
        draws = rng.dirichlet(np.ones(len(block)))
        for production, value in zip(block, draws):
            x[production] = float(value)
    return x


def simplex_grid(total, parts):
    """All nonnegative integer tuples of the given length summing to total."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in simplex_grid(total - head, parts - 1):
            yield (head,) + rest


class TestObjective:
    def test_monomials_of_the_two_word_example(self, theta2):
        obj = build_objective(theta2)
        assert obj.blocks == {"A": (A_EPS, A_A, A_AB, A_ABA, A_BA)}
        as_tuples = [(m.coefficient, m.exponents) for m in obj.monomials]
        assert as_tuples == [
            (2, ((A_EPS, 1), (A_ABA, 1))),
            (1, ((A_A, 1), (A_AB, 1))),
            (1, ((A_A, 1), (A_BA, 1))),
        ]

    def test_coefficients_sum_to_derivation_count(self, theta2):
        obj = build_objective(theta2)
        assert sum(m.coefficient for m in obj.monomials) == 4

    def test_block_degrees_match_occurrences(self):
        """Every monomial is homogeneous of degree occ(a) in block a."""
        rng = np.random.default_rng(42)
        for _ in range(30):
            theta = random_sequence(rng)
            obj = build_objective(theta)
            if obj.monomials is None:
                continue
            occurrences = occurrence_counts(theta)
            for monomial in obj.monomials:
                degrees = {}
                for production, exponent in monomial.exponents:
                    key = production.predecessor
                    degrees[key] = degrees.get(key, 0) + exponent
                expected = {s: c for s, c in occurrences.items() if c}
                assert degrees == expected

    def test_factored_and_expanded_forms_agree(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            theta = random_sequence(rng)
            obj = build_objective(theta)
            if obj.monomials is None:
                continue
            for _ in range(4):
                x = random_feasible_point(obj, rng)
                np.testing.assert_allclose(
                    objective_values(obj, [row(obj, x)])[0],
                    evaluate_monomials(obj, x),
                    atol=1e-12,
                )

    def test_uniform_point_value(self, theta2):
        obj = build_objective(theta2)
        x = {p: 1 / 5 for p in obj.variables}
        assert objective_values(obj, [row(obj, x)])[0] == pytest.approx(4 / 25, abs=1e-15)

    def test_known_system_value(self, g2, theta2):
        obj = build_objective(theta2)
        x = {p: g2.prob[p] for p in obj.variables if p in g2.prob}
        assert objective_values(obj, [row(obj, x)])[0] == pytest.approx(2 / 9, abs=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(SMALL_TRACES)
    def test_monomials_group_the_enumeration(self, theta):
        grouped: dict = {}
        free = build_free_system(theta)
        for derivation in enumerate_derivations(free, theta):
            key = tuple(sorted(count_productions(derivation).items()))
            grouped[key] = grouped.get(key, 0) + 1
        expected = tuple(
            Monomial(coefficient, exponents) for exponents, coefficient in sorted(grouped.items())
        )
        assert build_objective(theta).monomials == expected

    def test_coefficients_stay_exact_past_int64(self):
        """Each step of AA => AA applies {A -> <eps>, A -> AA} two ways or
        {A -> A, A -> A} one way, so the monomial with k steps of the first
        kind has coefficient C(45, k) 2^k, up to about 3.7e20."""
        theta = Sequence.from_strings(*["AA"] * 46)
        obj = build_objective(theta, cap=10**30)
        coefficients = sorted(m.coefficient for m in obj.monomials)
        assert coefficients == sorted(math.comb(45, k) * 2**k for k in range(46))

    def test_small_cap_skips_expansion(self, theta2):
        obj = build_objective(theta2, cap=3)
        assert obj.monomials is None
        assert objective_values(obj, [[0.2] * len(obj.variables)])[0] > 0
        with pytest.raises(ValueError, match="without monomial expansion"):
            evaluate_monomials(obj, {})

    def test_cap_zero_skips_expansion(self, theta2):
        assert build_objective(theta2, cap=0).monomials is None


class TestMaximize:
    def test_two_word_example_reaches_one_half(self, theta2):
        obj = build_objective(theta2, cap=0)
        x_star, best, traces = maximize(obj)
        assert best_value(traces, best) == pytest.approx(0.5, abs=1e-6)
        assert x_star[A_EPS] == pytest.approx(0.5, abs=1e-4)
        assert x_star[A_ABA] == pytest.approx(0.5, abs=1e-4)
        assert x_star[A_A] + x_star[A_AB] + x_star[A_BA] < 1e-4
        assert len(traces) == SolverConfig().restarts

    def test_growth_trace_reaches_one(self):
        theta = Sequence.from_strings("A", "AA", "AAAA")
        obj = build_objective(theta, cap=0)
        x_star, best, traces = maximize(obj)
        assert best_value(traces, best) == pytest.approx(1.0, abs=1e-4)
        assert x_star[Production("A", ("A", "A"))] > 0.99

    def test_single_variable_instance(self):
        theta = Sequence.from_strings("A", "B")
        obj = build_objective(theta, cap=0)
        x_star, best, traces = maximize(obj)
        assert best_value(traces, best) == pytest.approx(1.0, abs=1e-12)
        assert x_star[Production("A", ("B",))] == pytest.approx(1.0, abs=1e-12)

    def test_monotone_ascent_and_feasibility(self, theta2):
        rng = np.random.default_rng(42)
        instances = [theta2] + [random_sequence(rng) for _ in range(4)]
        for theta in instances:
            obj = build_objective(theta, cap=0)
            x_star, _, traces = maximize(obj)
            for trace in traces:
                diffs = np.diff(trace.values)
                assert (diffs >= -1e-12).all()
            for block in obj.blocks.values():
                total = sum(x_star[p] for p in block)
                assert abs(total - 1.0) <= 1e-9

    def test_dominates_random_feasible_points(self, theta2):
        rng = np.random.default_rng(42)
        instances = [theta2, random_sequence(rng), random_sequence(rng)]
        for theta in instances:
            obj = build_objective(theta, cap=0)
            _, best, traces = maximize(obj)
            points = [row(obj, random_feasible_point(obj, rng)) for _ in range(1000)]
            assert (objective_values(obj, points) <= best_value(traces, best) + 1e-9).all()

    def test_matches_refined_grid_search(self):
        """Coarse simplex grid plus local 1e-3 refinement around its argmax."""
        theta = Sequence.from_strings("AA", "AB")
        obj = build_objective(theta, cap=0)
        assert len(obj.variables) == 4

        coarse_steps = 50
        grid = [[c / coarse_steps for c in combo] for combo in simplex_grid(coarse_steps, 4)]
        coarse = objective_values(obj, grid)
        best_point = grid[int(np.argmax(coarse))]
        span = np.arange(-0.03, 0.0301, 0.001)
        a, b, c = np.meshgrid(*(best_point[i] + span for i in range(3)), indexing="ij")
        d = 1.0 - a - b - c
        cube = np.stack([a, b, c, d], axis=-1).reshape(-1, 4)
        cube = cube[(cube >= 0).all(axis=1)]
        refined = max(coarse.max(), objective_values(obj, cube).max())

        _, best, traces = maximize(obj)
        solver_value = best_value(traces, best)
        assert solver_value >= refined - 1e-12
        assert abs(solver_value - refined) <= 1e-4

    def test_deterministic_given_seed(self, theta2):
        obj = build_objective(theta2, cap=0)
        first = maximize(obj, SolverConfig(seed=3))
        second = maximize(obj, SolverConfig(seed=3))
        assert first[0] == second[0]
        assert first[1] == second[1]
        assert [t.values for t in first[2]] == [t.values for t in second[2]]

    def test_traces_hold_log_p(self, theta2):
        obj = build_objective(theta2, cap=0)
        x_star, best, traces = maximize(obj)
        assert traces[best].values[-1] == max(trace.values[-1] for trace in traces)
        at_x_star = objective_values(obj, [row(obj, x_star)])[0]
        assert traces[best].values[-1] == pytest.approx(math.log(at_x_star), abs=1e-12)
        assert traces[0].values[0] == pytest.approx(math.log(4 / 25), abs=1e-12)

    def test_best_is_the_earliest_restart_with_the_top_log_p(self, theta2):
        """Top within the solver's tolerance: float noise picks no winner."""
        obj = build_objective(theta2, cap=0)
        cfg = SolverConfig()
        _, best, traces = maximize(obj, cfg)
        floor = max(trace.values[-1] for trace in traces) - cfg.rel_tol
        assert best == next(r for r, trace in enumerate(traces) if trace.values[-1] >= floor)

    def test_restarts_within_the_tolerance_tie(self, theta2, monkeypatch):
        """A later restart 5e-11 nats higher (under rel_tol = 1e-10) loses to
        restart 0; one 1e-9 nats higher wins."""
        obj = build_objective(theta2, cap=0)
        cfg = SolverConfig(restarts=2)
        for gain, winner in ((5e-11, 0), (1e-9, 1)):

            def ascend(obj, x, cfg, first, gain=gain):
                values = [[-2.0, -1.0], [-2.0, -1.0 + gain]]
                return x, [RestartTrace(first + r, v, True) for r, v in enumerate(values)]

            monkeypatch.setattr(optimal_system, "_ascend", ascend)
            assert maximize(obj, cfg)[1] == winner

    def test_ties_go_to_restart_zero(self):
        """A -> B is the only variable, so every restart ends at log p = 0."""
        obj = build_objective(Sequence.from_strings("A", "B"), cap=0)
        _, best, traces = maximize(obj)
        assert [trace.values[-1] for trace in traces] == [0.0] * len(traces)
        assert best == 0

    def test_underflowing_trace_climbs_past_its_generator(self):
        """p(theta) underflows a double here; the solver still ascends in log p."""
        theta, generator = underflowing_trace()
        assert generator.linear == 0.0
        obj = build_objective(theta, cap=0)
        cfg = SolverConfig(restarts=2)
        x_star, best, traces = maximize(obj, cfg)
        assert traces[best].values[-1] >= max(trace.values[-1] for trace in traces) - cfg.rel_tol
        assert traces[best].values[-1] >= generator.log
        for trace in traces:
            assert trace.converged and trace.iterations > 1
        inferred = sequence_probability(assemble_system(theta, obj, x_star, cfg.prune_eps), theta)
        assert inferred.log >= generator.log

    def test_overrelaxation_passes_the_generator_where_plain_em_does_not(self, monkeypatch):
        """From the uniform start, 20 updates reach the generator's log p only
        with over-relaxation; plain EM is still about 180 nats short."""
        theta, generator = underflowing_trace()
        obj = build_objective(theta, cap=0)
        cfg = SolverConfig(restarts=1, max_iters=20)
        _, _, (trace,) = maximize(obj, cfg)
        assert trace.converged and trace.values[-1] >= generator.log
        monkeypatch.setattr(optimal_system, "OVERRELAX_GROWTH", 1.0)
        _, _, (plain,) = maximize(obj, cfg)
        assert not plain.converged and plain.values[-1] < generator.log - 100

    @pytest.mark.parametrize("chunk", [1, 3])
    def test_chunked_restarts_give_the_same_results(self, monkeypatch, chunk):
        """Restarts run in chunks of EDGE_CEILING / edges; the points, values
        and traces are bitwise those of one batch."""
        generator = make_system(
            "AB", {("A", "AB"): 0.6, ("A", "B"): 0.4, ("B", "A"): 0.7, ("B", "BA"): 0.3}
        )
        theta = sample_sequence(generator, 3, 5).sequence
        obj = build_objective(theta, cap=0)
        cfg = SolverConfig(restarts=4, max_iters=30)
        batched = maximize(obj, cfg)
        monkeypatch.setattr(optimal_system, "EDGE_CEILING", chunk * obj.lattice.bounds[-1])
        chunked = maximize(obj, cfg)
        assert chunked[0] == batched[0]
        assert chunked[1] == batched[1]
        assert [dataclasses.astuple(t) for t in chunked[2]] == [
            dataclasses.astuple(t) for t in batched[2]
        ]
        assert [t.restart for t in chunked[2]] == [0, 1, 2, 3]

    def test_block_count_invariant_is_checked(self, theta2):
        class Skewed:
            """The real lattice, with expected counts inflated by 1e-6."""

            def __init__(self, lattice):
                self.lattice = lattice

            def __getattr__(self, name):
                return getattr(self.lattice, name)

            def expected_counts(self, weights):
                values, counts = self.lattice.expected_counts(weights)
                return values, counts * (1 + 1e-6)

        obj = build_objective(theta2, cap=0)
        skewed = obj._replace(lattice=Skewed(obj.lattice))
        with pytest.raises(ArithmeticError, match="iteration 1.*'A'"):
            maximize(skewed)

    def test_no_variables_rejected(self):
        theta = Sequence(words=((), ()))
        obj = build_objective(theta, cap=0)
        with pytest.raises(ValueError, match="no variables"):
            maximize(obj)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(restarts=0)
        with pytest.raises(ValueError):
            SolverConfig(max_iters=0)
        with pytest.raises(ValueError):
            SolverConfig(rel_tol=0.0)
        with pytest.raises(ValueError):
            SolverConfig(prune_eps=1.5)


class TestInferOptimalSystem:
    def test_two_word_example_support_and_value(self, theta2):
        system, value = infer_optimal_system(theta2)
        assert value.linear == pytest.approx(0.5, abs=1e-6)
        learned = {p: v for p, v in system.prob.items() if p not in system.defaults}
        assert set(learned) == {A_EPS, A_ABA}
        assert learned[A_EPS] == pytest.approx(0.5, abs=1e-4)
        assert learned[A_ABA] == pytest.approx(0.5, abs=1e-4)

    def test_beats_the_single_derivation_optimum(self, theta2):
        _, value = infer_optimal_system(theta2)
        assert value.linear > 0.25

    def test_unrewritten_symbols_get_identity_defaults(self, theta2):
        system, _ = infer_optimal_system(theta2)
        identity = Production("B", ("B",))
        assert system.defaults == frozenset({identity})
        assert system.prob[identity] == 1.0

    def test_growth_instance_concentrates_on_doubling(self):
        theta = Sequence.from_strings("A", "AA", "AAAA")
        system, value = infer_optimal_system(theta)
        assert value.linear == pytest.approx(1.0, abs=1e-4)
        assert system.prob[Production("A", ("A", "A"))] > 0.99

    def test_pruning_changes_the_value_only_marginally(self):
        rng = np.random.default_rng(42)
        cfg = SolverConfig()
        for _ in range(6):
            theta = random_sequence(rng)
            obj = build_objective(theta, cap=0)
            x_star, best, traces = maximize(obj, cfg)
            system = assemble_system(theta, obj, x_star, cfg.prune_eps)
            final = sequence_probability(system, theta).linear
            assert abs(final - best_value(traces, best)) < 1e-6

    def test_result_is_a_valid_stochastic_system(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            theta = random_sequence(rng)
            system, value = infer_optimal_system(theta)
            sums = {}
            for production, p in system.prob.items():
                assert p > 0
                sums[production.predecessor] = sums.get(production.predecessor, 0.0) + p
            for total in sums.values():
                assert total == pytest.approx(1.0, abs=1e-9)
            assert value.linear >= 0.0
