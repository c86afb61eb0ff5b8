"""Derivation enumeration and the two routes to sequence probability.

The enumeration-and-sum route is the oracle; the per-step dynamic program is
the fast route.  They must agree to near machine precision, and the analytic
gradient must agree with central finite differences of the factored form.
"""

import math
from collections import Counter
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import solis.derivations
from conftest import (
    DATA,
    SMALL_TRACES,
    make_system,
    random_sequence,
    random_system_for,
    traces,
    word,
)
from oracles import enumerate_step_assignments, sequence_probability_naive
from solis import (
    CapExceeded,
    Derivation,
    IncompatibleSequence,
    Partial0LSystem,
    Production,
    Sequence,
    build_free_system,
    count_productions,
    derivation_probability,
    enumerate_derivations,
    occurrence_counts,
    parse_sequence_file,
    sequence_probability,
)
from solis.derivations import SCORE_WINDOW, _bounds, count_multisets
from solis.lattice import compile_lattice, free_lattice, lattice_probability


def capped(cap):
    """A context in which enumerate_derivations refuses more than cap
    derivations."""
    return mock.patch.object(solis.derivations, "DEFAULT_DERIVATION_CAP", cap)


class TestEnumeration:
    def test_free_enumeration_of_two_letter_step(self, theta2):
        free = build_free_system(theta2)
        derivations = list(enumerate_derivations(free, theta2))
        assert len(derivations) == 4

    def test_restricting_system_filters_assignments(self, g2, theta2):
        derivations = list(enumerate_derivations(g2.base, theta2))
        parts = [d.steps[0].parts for d in derivations]
        assert parts == [
            (("A",), ("B", "A")),
            (("A", "B"), ("A",)),
        ]

    def test_deterministic_d0l_has_one_derivation(self, g1, theta1):
        derivations = list(enumerate_derivations(g1.base, theta1))
        assert len(derivations) == 1
        assert derivations[0].steps[0].parts == (
            ("A", "B", "A"),
            ("B",),
            ("A", "C"),
        )

    def test_multi_step_product_order(self):
        theta = Sequence.from_strings("A", "AA", "AAA")
        free = build_free_system(theta)
        derivations = list(enumerate_derivations(free, theta))
        # 1 assignment for the first step, C(4,1)=4 for the second
        assert len(derivations) == 4
        second_parts = [d.steps[1].parts for d in derivations]
        assert second_parts == sorted(second_parts)

    def test_incompatible_step_reports_index(self, g1):
        theta = Sequence.from_strings("AAA", "ABABAC", "BBBBBB")
        with pytest.raises(IncompatibleSequence) as info:
            list(enumerate_derivations(g1.base, theta))
        assert info.value.step == 2

    def test_trace_from_another_axiom_is_incompatible(self, g1):
        """g1's axiom is AAA, so no derivation of g1 starts at B."""
        with pytest.raises(IncompatibleSequence) as info:
            enumerate_derivations(g1.base, Sequence.from_strings("B", "B"))
        assert info.value.step is None
        assert str(info.value) == "the trace starts at B, not at the system's axiom AAA"

    def test_cap_reports_exact_count_when_known(self, theta2):
        free = build_free_system(theta2)
        with capped(3), pytest.raises(CapExceeded) as info:
            enumerate_derivations(free, theta2)
        assert info.value.count == 4
        assert info.value.cap == 3

    def test_cap_reports_lower_bound_when_a_step_overflows(self):
        theta = Sequence.from_strings("AAAA", "AAAAAAAA")
        free = build_free_system(theta)
        with capped(10), pytest.raises(CapExceeded) as info:
            enumerate_derivations(free, theta)
        assert "at least" in str(info.value)
        assert info.value.count > 10

    def test_cap_past_int64_counts_exactly(self):
        """Counts saturate at cap + 2, which past int64 needs Python ints."""
        theta = Sequence.from_strings("AAA", "AAAAA", "AAAAAAA")
        free = build_free_system(theta)
        expected = list(enumerate_derivations(free, theta))
        wide = Sequence.from_strings("A" * 20, "A" * 200)
        with capped(2**80):
            assert list(enumerate_derivations(free, theta)) == expected
            with pytest.raises(CapExceeded) as info:
                enumerate_derivations(build_free_system(wide), wide)
        assert info.value.count == 2**80 + 1
        assert "at least" in str(info.value)

    def test_derivation_steps_must_chain(self):
        theta = Sequence.from_strings("A", "AA", "AAAA")
        free = build_free_system(theta)
        derivations = list(enumerate_derivations(free, theta))
        first = derivations[0]
        with pytest.raises(ValueError, match="chain"):
            Derivation(steps=(first.steps[1], first.steps[0]))

    def test_every_position_rewritten_exactly_once(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            theta = random_sequence(rng)
            free = build_free_system(theta)
            occurrences = occurrence_counts(theta)
            for d in enumerate_derivations(free, theta):
                by_symbol = {}
                for production, count in count_productions(d).items():
                    key = production.predecessor
                    by_symbol[key] = by_symbol.get(key, 0) + count
                assert by_symbol == {s: c for s, c in occurrences.items() if c}


def _assignments_within(x, y, productions) -> int:
    """The oracle's assignments of x => y that use only the productions; an
    empty source with a non-empty target has none."""
    try:
        assignments = list(enumerate_step_assignments(x, y))
    except IncompatibleSequence:
        return 0
    return sum(all(p in productions for p in a.productions()) for a in assignments)


@settings(max_examples=150, deadline=None)
@given(SMALL_TRACES, st.data())
def test_count_check_matches_the_oracle(theta, data):
    """Over a random subset of the free productions and a cap, three of
    them past int64 (the object path), enumerate_derivations refuses at the
    first step the oracle finds no assignment for, refuses past the cap
    with the count of every step saturated at cap + 1 ("at least" exactly
    when one saturates), or yields every derivation."""
    free = build_free_system(theta)
    mask = data.draw(st.lists(st.booleans(), min_size=len(free.productions)))
    subset = tuple(p for p, keep in zip(free.productions, mask) if keep)
    cap = data.draw(st.sampled_from([1, 2, 3, 7, 2**62, 2**63, 2**80]))
    system = Partial0LSystem(free.alphabet, free.axiom, subset)
    counts = [_assignments_within(x, y, set(subset)) for x, y in theta.steps()]
    total = math.prod(min(c, cap + 1) for c in counts)
    with capped(cap):
        if 0 in counts:
            with pytest.raises(IncompatibleSequence) as refused:
                enumerate_derivations(system, theta)
            assert refused.value.step == counts.index(0) + 1
        elif total > cap:
            with pytest.raises(CapExceeded) as refused:
                enumerate_derivations(system, theta)
            assert refused.value.count == total
            assert ("at least " in str(refused.value)) == (max(counts) > cap + 1)
        else:
            assert sum(1 for _ in enumerate_derivations(system, theta)) == math.prod(counts)


@settings(max_examples=80, deadline=None)
@given(SMALL_TRACES)
@example(Sequence(((), ())))
@example(Sequence(((), (), ())))
def test_multiset_table_groups_the_enumeration(theta):
    """Rows come in order of their earliest derivation, which each row keeps,
    together with the number of derivations that share its multiset."""
    free, lattice = build_free_system(theta), free_lattice(theta)
    earliest: dict = {}
    multiplicity: Counter = Counter()
    for d in enumerate_derivations(free, theta):
        key = tuple(sorted(count_productions(d).items()))
        earliest.setdefault(key, d)
        multiplicity[key] += 1
    table = count_multisets(lattice, theta)
    assert len(table.rows) == len(earliest)
    for i, (key, d) in enumerate(earliest.items()):
        assert tuple((free.productions[k], c) for k, c in table.counts(i)) == key
        assert table.derivation(i) == d
        assert table.multiplicity[i] == multiplicity[key]


def xlogx_sum(row) -> float:
    """sum(c * log c) over the counts of a row's entries."""
    return math.fsum(c * math.log(c) for c in Counter(row.tolist()).values())


@settings(max_examples=100, deadline=None)
@given(traces(4), st.data())
def test_bound_covers_every_completion(theta, data):
    """A multiset of the steps before a split, with the occurrences of the
    steps after it to spare, is bounded by at least the score of its sum
    with every multiset of those steps; and the same the other way round."""
    assume(theta.step_count >= 2)
    split = data.draw(st.integers(1, theta.step_count - 1))
    free = build_free_system(theta)
    symbols = sorted({p.predecessor for p in free.productions})
    block = np.array([symbols.index(p.predecessor) for p in free.productions], np.intp)

    def side(words):
        occurrences = [sum(x.count(a) for x in words[:-1]) for a in symbols]
        lattice = compile_lattice(Sequence(words), free.productions)
        return count_multisets(lattice, Sequence(words)).rows, np.array(occurrences, np.int64)

    before, spare_before = side(theta.words[: split + 1])
    after, spare_after = side(theta.words[split:])
    bounds_before = _bounds(before, block, spare_after)
    bounds_after = _bounds(after, block, spare_before)
    for i, head in enumerate(before):
        for k, tail in enumerate(after):
            score = xlogx_sum(np.concatenate([head, tail]))
            assert bounds_before[i] >= score - 1e-12 * (1.0 + score)
            assert bounds_after[k] >= score - 1e-12 * (1.0 + score)


@settings(max_examples=100, deadline=None)
@given(traces(5))
@example(Sequence(((), (), ())))
@example(Sequence.from_strings("AAA", "AAA", "AAA"))
def test_pruned_table_keeps_the_near_best_rows_in_order(theta):
    """The branch and bound drops rows of the full table, but keeps every row
    within SCORE_WINDOW of the top score, in the same order and with the same
    earliest derivation."""
    lattice = free_lattice(theta)
    try:
        full = count_multisets(lattice, theta, cap=10**5)
    except CapExceeded:
        assume(False)
    pruned = count_multisets(lattice, theta, cap=10**5, near_best=True)
    assert pruned.multiplicity is None
    scores = full.scores()
    np.testing.assert_allclose(scores, [xlogx_sum(row) for row in full.rows], rtol=1e-12)
    near_top = np.flatnonzero(scores >= scores.max() * (1.0 - SCORE_WINDOW)).tolist()
    position = {row.tobytes(): i for i, row in enumerate(pruned.rows)}
    kept = [position[full.rows[i].tobytes()] for i in near_top]
    assert kept == sorted(kept)
    assert (pruned.first[kept] == full.first[near_top]).all()


def test_pruned_table_of_a_large_derivation_space_is_small():
    """173,264 derivations in 59,575 count multisets, of which the branch and
    bound builds a few percent."""
    theta = parse_sequence_file(str(DATA / "enum-seed0.seq"))
    lattice = free_lattice(theta)
    full = count_multisets(lattice, theta)
    pruned = count_multisets(lattice, theta, near_best=True)
    assert len(full.rows) == 59_575
    assert len(pruned.rows) < len(full.rows) // 20


@settings(max_examples=120, deadline=None)
@given(SMALL_TRACES, st.sampled_from([1.0, 0.7, 0.4]), st.integers(0, 2**32 - 1))
@example(Sequence(((), ())), 1.0, 0)
@example(Sequence(((), (), ())), 0.4, 0)
def test_enumeration_is_the_product_of_step_compositions(theta, keep, seed):
    """An oracle that shares nothing with the lattice: every composition of
    each step, kept when the system has all of its productions, and the
    Cartesian product of the steps in order."""
    free = build_free_system(theta)
    rng = np.random.default_rng(seed)
    system = Partial0LSystem(
        alphabet=free.alphabet,
        axiom=free.axiom,
        productions=tuple(p for p in free.productions if rng.random() < keep),
    )
    allowed = set(system.productions)
    per_step = [
        [a for a in enumerate_step_assignments(x, y) if allowed.issuperset(a.productions())]
        for x, y in theta.steps()
    ]
    if not all(per_step):
        with pytest.raises(IncompatibleSequence) as info:
            enumerate_derivations(system, theta)
        assert info.value.step == 1 + [bool(s) for s in per_step].index(False)
        return
    expected = [Derivation(steps=combo) for combo in product(*per_step)]
    assert list(enumerate_derivations(system, theta)) == expected


class TestDerivationProbability:
    def test_counts_of_the_unique_derivation(self, g1, theta1):
        [d] = enumerate_derivations(g1.base, theta1)
        assert count_productions(d) == {
            Production("A", ("A", "B", "A")): 1,
            Production("A", ("B",)): 1,
            Production("A", ("A", "C")): 1,
        }

    def test_value_of_the_unique_derivation(self, g1, theta1):
        [d] = enumerate_derivations(g1.base, theta1)
        assert derivation_probability(g1, d) == pytest.approx(1 / 27, abs=1e-15)

    def test_missing_production_gives_zero(self, g2, theta2):
        free = build_free_system(theta2)
        erasing = next(
            d
            for d in enumerate_derivations(free, theta2)
            if Production("A", ()) in count_productions(d)
        )
        assert derivation_probability(g2, erasing) == 0.0

    def test_deterministic_system_gives_one(self):
        g = make_system("A", {("A", "AA"): 1.0})
        theta = Sequence.from_strings("A", "AA", "AAAA")
        [d] = enumerate_derivations(g.base, theta)
        assert derivation_probability(g, d) == 1.0


class TestSequenceProbability:
    def test_example_value_by_both_routes(self, g2, theta2):
        naive = sequence_probability_naive(g2, theta2)
        fast = sequence_probability(g2, theta2)
        assert naive == pytest.approx(2 / 9, abs=1e-15)
        assert fast.linear == pytest.approx(2 / 9, abs=1e-15)
        assert fast.log == pytest.approx(math.log(2 / 9), abs=1e-12)

    def test_single_derivation_example(self, g1, theta1):
        assert sequence_probability(g1, theta1).linear == pytest.approx(
            1 / 27, abs=1e-15
        )

    def test_each_derivation_contributes(self, g2, theta2):
        values = [
            derivation_probability(g2, d)
            for d in enumerate_derivations(g2.base, theta2)
        ]
        assert values == pytest.approx([1 / 9, 1 / 9])

    def test_incompatible_sequence_is_zero(self, g1):
        theta = Sequence.from_strings("AAA", "BBBBBB")
        assert sequence_probability_naive(g1, theta) == 0.0
        value = sequence_probability(g1, theta)
        assert value.linear == 0.0
        assert value.log == float("-inf")

    def test_trace_from_another_axiom_is_zero(self, g1):
        """B -> B is one of g1's rules, but g1's axiom is AAA."""
        assert sequence_probability(g1, Sequence.from_strings("B", "B")) == (float("-inf"), 0.0)

    def test_fast_route_matches_enumeration_on_random_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(120):
            theta = random_sequence(rng)
            g = random_system_for(theta, rng)
            naive = sequence_probability_naive(g, theta)
            fast = sequence_probability(g, theta).linear
            assert abs(fast - naive) <= 1e-12

    def test_sum_over_derivations_matches_fast_route(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            theta = random_sequence(rng)
            g = random_system_for(theta, rng)
            total = math.fsum(
                derivation_probability(g, d)
                for d in enumerate_derivations(g.base, theta)
            )
            np.testing.assert_allclose(
                sequence_probability(g, theta).linear, total, atol=1e-12
            )


def weight_row(lattice, weights):
    """One row of the lattice's variables' weights, 0 where weights has none."""
    return np.array([[weights.get(p, 0.0) for p in lattice.variables]])


def gradient(g, theta):
    """dp/dx_p for every production of g: p times d log p/dx_p, which is the
    expected count of p over x_p.  Needs p(theta) > 0."""
    lattice = compile_lattice(theta, g.base.productions)
    x = weight_row(lattice, g.prob)
    log_p, counts = lattice.expected_counts(x)
    values = lattice.values(x)
    assert log_p.tobytes() == np.log(values).sum(axis=1).tobytes()
    linear = math.prod(values[0].tolist())
    return dict(zip(lattice.variables, (linear * counts[0] / x[0]).tolist()))


#: a weighting of the five productions of AA => ABA
HAND_WEIGHTS = {
    Production("A", ()): 2.0,
    Production("A", ("A",)): 3.0,
    Production("A", ("A", "B")): 5.0,
    Production("A", ("B", "A")): 7.0,
    Production("A", ("A", "B", "A")): 11.0,
}


class TestStepValues:
    """The factored form accepts arbitrary nonnegative weights, not just
    probabilities.  Negative ones never reach it: S0LSystem rejects every
    probability that is not positive (test_model.py,
    test_zero_probability_rejected)."""

    def test_hand_expanded_polynomial(self, theta2):
        lattice = compile_lattice(theta2, HAND_WEIGHTS)
        # S = 2*x_eps*x_ABA + x_A*x_BA + x_AB*x_A = 44 + 21 + 15
        assert lattice.values(weight_row(lattice, HAND_WEIGHTS)).tolist() == [[80.0]]

    def test_hand_expanded_gradient(self, theta2):
        """x_p * dS/dx_p / S, with dS/dx_p read off the expansion above."""
        lattice = compile_lattice(theta2, HAND_WEIGHTS)
        x = weight_row(lattice, HAND_WEIGHTS)
        log_p, counts = lattice.expected_counts(x)
        values = lattice.values(x)
        assert values.tolist() == [[80.0]]
        assert log_p.tobytes() == np.log(values).sum(axis=1).tobytes()
        assert dict(zip(lattice.variables, counts[0].tolist())) == pytest.approx(
            {
                Production("A", ()): 2.0 * 22.0 / 80.0,
                Production("A", ("A",)): 3.0 * 12.0 / 80.0,
                Production("A", ("A", "B")): 5.0 * 3.0 / 80.0,
                Production("A", ("B", "A")): 7.0 * 3.0 / 80.0,
                Production("A", ("A", "B", "A")): 11.0 * 4.0 / 80.0,
            },
            rel=1e-15,
        )

    def test_absent_weights_count_as_zero(self, theta2):
        weights = {Production("A", ("A",)): 1.0, Production("A", ("B", "A")): 1.0}
        lattice = compile_lattice(theta2, HAND_WEIGHTS)
        assert lattice_probability(lattice, weights) == (0.0, 1.0)
        lattice = compile_lattice(theta2, weights)
        assert lattice.values(weight_row(lattice, weights)).tolist() == [[1.0]]

    def test_values_multiply_to_the_probability(self, g2):
        theta = Sequence.from_strings("AA", "ABA", "ABBA")
        lattice = compile_lattice(theta, g2.base.productions)
        values = lattice.values(weight_row(lattice, g2.prob))[0].tolist()
        assert len(values) == 2
        assert math.prod(values) == pytest.approx(
            sequence_probability_naive(g2, theta), abs=1e-15
        )


class TestGradient:
    def test_hand_derived_partial(self, g2, theta2):
        grad = gradient(g2, theta2)
        assert grad[Production("A", ("A",))] == pytest.approx(2 / 3, abs=1e-12)

    def test_square_objective(self):
        g = make_system("A", {("A", "A"): 1.0})
        theta = Sequence.from_strings("A", "A", "A")
        grad = gradient(g, theta)
        # p = x^2, so dp/dx = 2x = 2 at x = 1
        assert grad[Production("A", ("A",))] == pytest.approx(2.0, abs=1e-12)

    def test_matches_central_differences(self):
        rng = np.random.default_rng(42)
        h = 1e-6
        for _ in range(40):
            theta = random_sequence(rng)
            g = random_system_for(theta, rng)
            if not g.prob:
                continue
            grad = gradient(g, theta)
            lattice = compile_lattice(theta, g.base.productions)
            for production in g.prob:
                if g.prob[production] <= 2 * h:
                    continue
                up = dict(g.prob)
                down = dict(g.prob)
                up[production] += h
                down[production] -= h
                fd = (
                    math.prod(lattice.values(weight_row(lattice, up))[0])
                    - math.prod(lattice.values(weight_row(lattice, down))[0])
                ) / (2 * h)
                np.testing.assert_allclose(
                    grad[production],
                    fd,
                    atol=1e-6 * max(1.0, abs(grad[production])),
                )
