"""Closed-form simplex maximization, the per-derivation bound, and its argmax.

Oracles: a dense grid search for the constrained product of powers, and exact
Fraction arithmetic for the bound over explicitly enumerated derivations.
"""

import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import solis.optimal_derivation
from conftest import SMALL_TRACES, random_sequence, random_system_for, traces
from oracles import SimplexProductProblem, simplex_product_max
from solis import (
    CapExceeded,
    SolisError,
    Production,
    Sequence,
    best_derivation,
    build_free_system,
    count_productions,
    derivation_bound,
    derivation_probability,
    enumerate_derivations,
    occurrence_counts,
)


def outcome(call):
    """What call returns, or the type and message of the SolisError it raises."""
    try:
        return call()
    except SolisError as exc:
        return type(exc), str(exc)


def best_over_every_multiset(theta, cap):
    """best_derivation scoring the unpruned table of count multisets."""
    full = solis.optimal_derivation.count_multisets

    def unpruned(system, theta, cap, near_best):
        return full(system, theta, cap)

    with mock.patch.object(solis.optimal_derivation, "count_multisets", unpruned):
        return best_derivation(theta, cap)


def fraction_bound(theta, counts):
    """Exact rational version of the bound, recomputed from scratch."""
    numerator = 1
    for count in counts.values():
        numerator *= count**count
    denominator = 1
    for occ in occurrence_counts(theta).values():
        denominator *= occ**occ
    return Fraction(numerator, denominator)


class TestSimplexProductMax:
    def test_two_symmetric_variables(self):
        problem = SimplexProductProblem((1, 1), (1.0, 1.0), 1.0)
        argmax, value = simplex_product_max(problem)
        np.testing.assert_allclose(argmax, [0.5, 0.5])
        assert value == pytest.approx(0.25, abs=1e-15)

    def test_unbalanced_exponents(self):
        problem = SimplexProductProblem((2, 1), (1.0, 1.0), 1.0)
        argmax, value = simplex_product_max(problem)
        np.testing.assert_allclose(argmax, [2 / 3, 1 / 3])
        assert value == pytest.approx(4 / 27, abs=1e-15)

    def test_single_variable_with_coefficient(self):
        problem = SimplexProductProblem((3,), (2.0,), 4.0)
        argmax, value = simplex_product_max(problem)
        np.testing.assert_allclose(argmax, [2.0])
        assert value == pytest.approx(8.0, abs=1e-12)

    def test_argmax_satisfies_the_constraint(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            n = int(rng.integers(1, 5))
            problem = SimplexProductProblem(
                tuple(int(e) for e in rng.integers(1, 4, size=n)),
                tuple(float(c) for c in rng.uniform(0.5, 2.0, size=n)),
                float(rng.uniform(0.5, 2.0)),
            )
            argmax, value = simplex_product_max(problem)
            total = sum(a * x for a, x in zip(problem.coefficients, argmax))
            assert total == pytest.approx(problem.budget, abs=1e-12)
            assert all(x > 0 for x in argmax)
            assert value > 0

    def test_dominates_a_dense_grid(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            exponents = (int(rng.integers(1, 4)), int(rng.integers(1, 4)))
            coefficients = (float(rng.uniform(0.5, 2)), float(rng.uniform(0.5, 2)))
            budget = float(rng.uniform(0.5, 2))
            problem = SimplexProductProblem(exponents, coefficients, budget)
            _, value = simplex_product_max(problem)
            x1 = np.linspace(0.0, budget / coefficients[0], 2001)[1:-1]
            x2 = (budget - coefficients[0] * x1) / coefficients[1]
            grid = x1 ** exponents[0] * x2 ** exponents[1]
            assert value >= grid.max() - 1e-12
            assert grid.max() >= value - 5e-3 * max(value, 1.0)

    def test_three_variable_grid(self):
        problem = SimplexProductProblem((2, 1, 1), (1.0, 1.0, 1.0), 1.0)
        _, value = simplex_product_max(problem)
        step = 0.005
        best = 0.0
        for i in np.arange(step, 1.0, step):
            for j in np.arange(step, 1.0 - i, step):
                k = 1.0 - i - j
                if k <= 0:
                    continue
                best = max(best, i**2 * j * k)
        assert value >= best - 1e-12
        assert best >= value - 1e-3

    def test_validation(self):
        with pytest.raises(ValueError):
            SimplexProductProblem((), (), 1.0)
        with pytest.raises(ValueError):
            SimplexProductProblem((1, 2), (1.0,), 1.0)
        with pytest.raises(ValueError):
            SimplexProductProblem((0,), (1.0,), 1.0)
        with pytest.raises(ValueError):
            SimplexProductProblem((1,), (-1.0,), 1.0)
        with pytest.raises(ValueError):
            SimplexProductProblem((1,), (1.0,), 0.0)


class TestDerivationBound:
    def test_two_rule_derivation(self, theta2):
        counts = {Production("A", ()): 1, Production("A", ("A", "B", "A")): 1}
        bound = derivation_bound(theta2, counts)
        assert bound.linear == 0.25
        assert bound.log == pytest.approx(math.log(0.25), abs=1e-12)

    def test_three_distinct_rules(self, theta1):
        counts = {
            Production("A", ("A", "B", "A")): 1,
            Production("A", ("B",)): 1,
            Production("A", ("A", "C")): 1,
        }
        bound = derivation_bound(theta1, counts)
        assert bound.linear == float(Fraction(1, 27))

    def test_repeated_rule_raises_the_bound(self, theta1):
        counts = {
            Production("A", ()): 2,
            Production("A", tuple("ABABAC")): 1,
        }
        assert derivation_bound(theta1, counts).linear == float(Fraction(4, 27))

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(14, 400), min_size=1, max_size=4),
        st.lists(st.integers(14, 400), min_size=1, max_size=4),
    )
    def test_linear_value_is_the_correctly_rounded_ratio(self, a_counts, b_counts):
        """Counts of 14 or more make every c**c, and so both products, pass
        2**53, past which floats no longer hold them exactly."""
        theta = Sequence.from_strings("A" * sum(a_counts) + "B" * sum(b_counts), "A")
        counts = {
            Production(symbol, (symbol,) * k): count
            for symbol, block in (("A", a_counts), ("B", b_counts))
            for k, count in enumerate(block)
        }
        assert derivation_bound(theta, counts).linear == float(fraction_bound(theta, counts))

    def test_matches_per_block_simplex_maxima(self):
        """Second route: optimize each predecessor's simplex in closed form."""
        rng = np.random.default_rng(42)
        checked = 0
        for _ in range(40):
            theta = random_sequence(rng)
            free = build_free_system(theta)
            for d in enumerate_derivations(free, theta, cap=2_000):
                counts = count_productions(d)
                if not counts:
                    continue
                blocks: dict[str, list[int]] = {}
                for production, count in counts.items():
                    blocks.setdefault(production.predecessor, []).append(count)
                expected = 1.0
                for exponents in blocks.values():
                    problem = SimplexProductProblem(
                        tuple(exponents), (1.0,) * len(exponents), 1.0
                    )
                    expected *= simplex_product_max(problem)[1]
                bound = derivation_bound(theta, counts)
                np.testing.assert_allclose(bound.linear, expected, atol=1e-12)
                checked += 1
                if checked >= 300:
                    return

    def test_no_system_beats_the_bound(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            theta = random_sequence(rng)
            g = random_system_for(theta, rng)
            for d in enumerate_derivations(g.base, theta, cap=2_000):
                bound = derivation_bound(theta, count_productions(d))
                assert derivation_probability(g, d) <= bound.linear + 1e-12


class TestBestDerivation:
    def test_two_word_example(self, theta2):
        derivation, system, value = best_derivation(theta2)
        assert value.linear == 0.25
        assert derivation.steps[0].parts == ((), ("A", "B", "A"))
        assert system.prob == {
            Production("A", ()): 0.5,
            Production("A", ("A", "B", "A")): 0.5,
        }

    def test_returned_system_attains_the_value(self, theta2):
        derivation, system, value = best_derivation(theta2)
        assert derivation_probability(system, derivation) == pytest.approx(
            value.linear, abs=1e-12
        )

    def test_repetition_beats_distinct_rules(self, theta1):
        derivation, system, value = best_derivation(theta1)
        assert value.linear == float(Fraction(4, 27))
        assert derivation.steps[0].parts == ((), (), tuple("ABABAC"))
        assert system.prob == {
            Production("A", ()): pytest.approx(2 / 3),
            Production("A", tuple("ABABAC")): pytest.approx(1 / 3),
        }
        assert value.linear > float(Fraction(1, 27))

    def test_forced_derivation_has_value_one(self):
        theta = Sequence.from_strings("A", "B")
        derivation, system, value = best_derivation(theta)
        assert value.linear == 1.0
        assert system.prob == {Production("A", ("B",)): 1.0}

    def test_no_defaults_and_only_used_productions(self, theta1):
        derivation, system, _ = best_derivation(theta1)
        assert system.defaults == frozenset()
        assert set(system.base.productions) == set(count_productions(derivation))

    def test_matches_exhaustive_fraction_argmax(self):
        rng = np.random.default_rng(42)
        for _ in range(40):
            theta = random_sequence(rng)
            free = build_free_system(theta)
            exact = max(
                fraction_bound(theta, count_productions(d))
                for d in enumerate_derivations(free, theta, cap=10_000)
            )
            derivation, system, value = best_derivation(theta)
            assert value.linear == pytest.approx(float(exact), abs=1e-15)
            attained = derivation_probability(system, derivation)
            assert attained == pytest.approx(float(exact), abs=1e-12)

    def test_sharpness_on_random_instances(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            theta = random_sequence(rng)
            derivation, system, value = best_derivation(theta)
            attained = derivation_probability(system, derivation)
            assert attained == pytest.approx(value.linear, abs=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(SMALL_TRACES)
    @example(Sequence(((), ())))
    @example(Sequence(((), (), ())))
    @example(Sequence.from_strings("ABBC", "BCBA", "B"))
    def test_first_exact_maximum_wins(self, theta):
        """The winner is the first derivation in enumeration order whose exact
        bound is maximal.  On ABBC, BCBA, B the tied maxima (counts 2, 2, 3 in
        different orders) differ by one ulp in floating point, and a later one
        scores higher there.  best_derivation scores a table pruned by branch
        and bound, so this also checks that no tied maximum is pruned."""
        free = build_free_system(theta)
        expected, expected_bound = None, None
        for d in enumerate_derivations(free, theta):
            bound = fraction_bound(theta, count_productions(d))
            if expected is None or bound > expected_bound:
                expected, expected_bound = d, bound
        derivation, system, value = best_derivation(theta)
        assert derivation == expected
        assert value.linear == float(expected_bound)
        assert system.prob == {
            p: c / occurrence_counts(theta)[p.predecessor]
            for p, c in count_productions(expected).items()
        }

    @settings(max_examples=150, deadline=None)
    @given(traces(5), st.sampled_from([50, 10**7]))
    @example(Sequence(((), (), ())), 50)
    @example(Sequence.from_strings("ABBC", "BCBA", "B"), 10**7)
    @example(Sequence.from_strings("AAA", "AAA", "AAA"), 10**7)
    def test_pruned_table_gives_the_same_answer(self, theta, cap):
        """Derivation, system and value, or the error raised, are those of
        the search over every count multiset."""
        assert outcome(lambda: best_derivation(theta, cap)) == outcome(
            lambda: best_over_every_multiset(theta, cap)
        )

    def test_cap_propagates(self, theta2):
        with pytest.raises(CapExceeded):
            best_derivation(theta2, cap=3)
