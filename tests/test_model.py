"""Core types: sequences, productions, systems, and occurrence counting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_system, random_sequence, word
from solis import (
    Partial0LSystem,
    Production,
    S0LSystem,
    Sequence,
    occurrence_counts,
)


class TestSequence:
    def test_from_strings_splits_characters(self):
        theta = Sequence.from_strings("AA", "ABA")
        assert theta.words == (("A", "A"), ("A", "B", "A"))

    def test_axiom_and_step_count(self):
        theta = Sequence.from_strings("A", "AA", "AAAA")
        assert theta.axiom == ("A",)
        assert theta.step_count == 2

    def test_steps_pairs_adjacent_words(self):
        theta = Sequence.from_strings("A", "AB", "ABB")
        assert list(theta.steps()) == [
            (("A",), ("A", "B")),
            (("A", "B"), ("A", "B", "B")),
        ]

    def test_symbols_collects_every_word(self):
        theta = Sequence.from_strings("AAA", "ABABAC")
        assert theta.symbols() == frozenset("ABC")

    def test_single_word_rejected(self):
        with pytest.raises(ValueError):
            Sequence(words=(("A",),))

    def test_empty_words_allowed(self):
        theta = Sequence(words=(("A",), ()))
        assert theta.step_count == 1


class TestProduction:
    def test_str_spells_out_the_arrow(self):
        """As a rule file writes it, space-joined if one of the rule's own
        symbols is a token."""
        assert str(Production("A", ("A", "B"))) == "A -> AB"
        assert str(Production("Ab", ("c", "Ab"))) == "Ab -> c Ab"
        assert str(Production("c", ("c", "c"))) == "c -> cc"

    def test_str_renders_empty_successor(self):
        assert str(Production("A", ())) == "A -> <eps>"

    def test_ordering_is_predecessor_then_successor(self):
        a = Production("A", ())
        b = Production("A", ("B",))
        c = Production("B", ())
        assert sorted([c, b, a]) == [a, b, c]

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from("ABC"),
                st.lists(st.sampled_from("ABC"), max_size=4).map(tuple),
            ),
            max_size=30,
        )
    )
    def test_hash_and_order_are_those_of_the_pair(self, pairs):
        """Dicts and sets keyed on productions, and the canonical order,
        are those of plain (predecessor, successor) tuples."""
        productions = [Production(a, successor) for a, successor in pairs]
        for production, pair in zip(productions, pairs):
            assert hash(production) == hash(pair)
        assert [tuple(p) for p in sorted(productions)] == sorted(pairs)

    def test_repr_names_the_fields(self):
        assert repr(Production("A", ("A", "B"))) == (
            "Production(predecessor='A', successor=('A', 'B'))"
        )
        assert repr(Production("A", ())) == "Production(predecessor='A', successor=())"


class TestPartial0LSystem:
    def test_productions_deduplicated_and_sorted(self):
        p = Production("A", ("B",))
        q = Production("A", ())
        system = Partial0LSystem(
            alphabet=frozenset("AB"), axiom=("A",), productions=(p, q, p)
        )
        assert system.productions == (q, p)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.builds(
                Production,
                st.sampled_from("ABC"),
                st.lists(st.sampled_from("ABC"), max_size=4).map(tuple),
            ),
            max_size=30,
        )
    )
    def test_canonical_order_is_the_production_order(self, productions):
        system = Partial0LSystem(
            alphabet=frozenset("ABC"), axiom=("A",), productions=tuple(productions)
        )
        assert system.productions == tuple(sorted(set(productions)))

    def test_axiom_symbol_outside_alphabet_rejected(self):
        with pytest.raises(ValueError, match="axiom"):
            Partial0LSystem(alphabet=frozenset("A"), axiom=("B",), productions=())

    def test_successor_symbol_outside_alphabet_rejected(self):
        with pytest.raises(ValueError, match="successor"):
            Partial0LSystem(
                alphabet=frozenset("A"),
                axiom=("A",),
                productions=(Production("A", ("Z",)),),
            )


class TestS0LSystem:
    def test_probability_of_missing_production_is_zero(self, g2):
        assert g2.probability(Production("A", ("Z",))) == 0.0
        assert g2.probability(Production("A", ("A", "B"))) == pytest.approx(1 / 3)

    def test_probabilities_must_cover_exactly_the_productions(self):
        base = Partial0LSystem(
            alphabet=frozenset("A"), axiom=("A",), productions=(Production("A", ("A",)),)
        )
        with pytest.raises(ValueError, match="cover exactly"):
            S0LSystem(base=base, prob={})

    def test_zero_probability_rejected(self):
        base = Partial0LSystem(
            alphabet=frozenset("A"), axiom=("A",), productions=(Production("A", ("A",)),)
        )
        with pytest.raises(ValueError, match="strictly positive"):
            S0LSystem(base=base, prob={Production("A", ("A",)): 0.0})

    def test_block_sum_away_from_one_rejected(self):
        with pytest.raises(ValueError, match="sum"):
            make_system("A", {("A", "A"): 0.6, ("A", "AA"): 0.6})

    def test_block_sum_within_tolerance_accepted(self):
        system = make_system("A", {("A", "A"): 0.5, ("A", "AA"): 0.5 + 1e-10})
        assert sum(system.prob.values()) == pytest.approx(1.0)

    def test_defaults_must_be_productions(self):
        base = Partial0LSystem(
            alphabet=frozenset("A"), axiom=("A",), productions=(Production("A", ("A",)),)
        )
        with pytest.raises(ValueError, match="defaults"):
            S0LSystem(
                base=base,
                prob={Production("A", ("A",)): 1.0},
                defaults=frozenset({Production("A", ())}),
            )


class TestOccurrences:
    """Occurrence totals count rewritten positions, so the last word is excluded."""

    def test_hand_counts(self):
        theta = Sequence.from_strings("AA", "ABA", "BBB")
        counts = occurrence_counts(theta)
        assert counts["A"] == 4
        assert counts["B"] == 1
        assert counts["C"] == 0

    def test_counter_matches_per_symbol_queries(self):
        theta = Sequence.from_strings("AAA", "ABABAC")
        counts = occurrence_counts(theta)
        assert counts == {"A": 3}
        assert counts["A"] == sum(w.count("A") for w in theta.words[:-1])

    def test_totals_sum_to_rewritten_length(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            theta = random_sequence(rng)
            total = sum(occurrence_counts(theta).values())
            assert total == sum(len(w) for w in theta.words[:-1])

    def test_word_helper(self):
        assert word("ABA") == ("A", "B", "A")
        assert word("") == ()
