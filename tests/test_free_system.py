"""The free system: the least restrictive system deriving a sequence."""

import numpy as np
import pytest
from hypothesis import example, given, settings

from conftest import SMALL_TRACES, random_sequence, word
from oracles import enumerate_step_assignments
from solis import (
    IncompatibleSequence,
    Production,
    Sequence,
    best_derivation,
    build_free_system,
    build_objective,
    enumerate_derivations,
)
from solis.lattice import free_lattice


class TestConstruction:
    def test_two_word_example(self, theta2):
        free = build_free_system(theta2)
        assert free.axiom == word("AA")
        assert set(free.productions) == {
            Production("A", ()),
            Production("A", ("A",)),
            Production("A", ("A", "B")),
            Production("A", ("B", "A")),
            Production("A", ("A", "B", "A")),
        }

    def test_last_word_symbols_get_no_rules(self, theta2):
        free = build_free_system(theta2)
        assert all(p.predecessor != "B" for p in free.productions)
        assert "B" in free.alphabet

    def test_productions_union_over_steps(self):
        theta = Sequence.from_strings("A", "B", "C")
        free = build_free_system(theta)
        assert set(free.productions) == {
            Production("A", ("B",)),
            Production("B", ("C",)),
        }

    def test_identity_trace(self):
        free = build_free_system(Sequence.from_strings("A", "A"))
        assert free.productions == (Production("A", ("A",)),)

    def test_matches_per_step_candidates(self):
        """The union of the steps' candidates: the productions of their
        enumerated assignments, or of their one-step free systems."""
        rng = np.random.default_rng(42)
        for _ in range(50):
            theta = random_sequence(rng)
            expected, per_step = set(), set()
            for x, y in theta.steps():
                for assignment in enumerate_step_assignments(x, y):
                    expected.update(assignment.productions())
                per_step.update(build_free_system(Sequence((x, y))).productions)
            assert set(build_free_system(theta).productions) == expected == per_step

    def test_impossible_step_reports_its_index(self):
        theta = Sequence(words=(word("A"), (), word("B")))
        with pytest.raises(IncompatibleSequence) as info:
            build_free_system(theta)
        assert info.value.step == 2


@pytest.mark.parametrize(
    "build", [free_lattice, build_free_system, build_objective, best_derivation]
)
def test_every_free_builder_refuses_an_impossible_step(build):
    """Every entry point that builds the free lattice refuses AB, <eps>, A
    with the same error."""
    theta = Sequence(words=(word("AB"), (), word("A")))
    with pytest.raises(IncompatibleSequence) as info:
        build(theta)
    assert info.value.step == 2
    assert str(info.value) == "step 2 is impossible: empty word cannot derive a non-empty word"


@settings(max_examples=80, deadline=None)
@given(SMALL_TRACES)
@example(Sequence(words=(("Hot", "Hot"), ("Hot", "Cold", "Hot"))))
# ("A", "B") sorts before ("AA",) as a word, after it as a joined string
@example(Sequence(words=(("A", "A", "A"), ("A", "B", "AA"))))
def test_free_lattice_lists_the_productions_in_canonical_order(theta):
    """The answers read the free productions off the lattice without the
    system's sort, so the lattice's order must already be canonical."""
    assert free_lattice(theta).variables == build_free_system(theta).productions


class TestFreeness:
    """Any derivation of the sequence only ever uses free productions."""

    def test_enumerated_derivations_stay_inside(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            theta = random_sequence(rng)
            free = build_free_system(theta)
            allowed = set(free.productions)
            for derivation in enumerate_derivations(free, theta):
                for step in derivation.steps:
                    assert set(step.productions()) <= allowed
