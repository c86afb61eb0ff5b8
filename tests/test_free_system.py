"""The free system: the least restrictive system deriving a sequence."""

import numpy as np
import pytest

from conftest import random_sequence, word
from solis import (
    IncompatibleSequence,
    Production,
    Sequence,
    build_free_system,
    enumerate_derivations,
)
from solis.derivations import enumerate_step_assignments


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
        assert free.productions_for("B") == ()
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


class TestFreeness:
    """Any derivation of the sequence only ever uses free productions."""

    def test_enumerated_derivations_stay_inside(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            theta = random_sequence(rng)
            free = build_free_system(theta)
            allowed = set(free.productions)
            for derivation in enumerate_derivations(free, theta, cap=10_000):
                for step in derivation.steps:
                    assert set(step.productions()) <= allowed
