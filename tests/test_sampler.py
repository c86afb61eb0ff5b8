"""Forward sampling: reproducibility, recorded derivations, and frequencies."""

import tracemalloc

import numpy as np
import pytest

import solis.sampler
from conftest import make_system, random_generator
from solis import (
    MissingProduction,
    WordLengthExceeded,
    derivation_probability,
    derive_step,
    sample_sequence,
    sequence_probability,
)


class TestDeriveStep:
    def test_deterministic_rules_rewrite_in_place(self):
        g = make_system("AA", {("A", "B"): 1.0, ("B", "B"): 1.0})
        rng = np.random.default_rng(0)
        target, assignment = derive_step(g, ("A", "A"), rng)
        assert target == ("B", "B")
        assert assignment.parts == (("B",), ("B",))

    def test_erasing_rules_shrink_the_word(self):
        g = make_system("AAA", {("A", ""): 1.0})
        rng = np.random.default_rng(0)
        target, _ = derive_step(g, ("A", "A", "A"), rng)
        assert target == ()

    def test_missing_production_raises(self):
        g = make_system("AB", {("A", "A"): 1.0, ("B", "B"): 1.0})
        rng = np.random.default_rng(0)
        with pytest.raises(MissingProduction) as info:
            derive_step(g, ("A", "C", "B"), rng)
        assert info.value.symbol == "C"

    def test_empty_word_stays_empty(self):
        g = make_system("A", {("A", "A"): 1.0})
        rng = np.random.default_rng(0)
        target, assignment = derive_step(g, (), rng)
        assert target == ()
        assert assignment.parts == ()


class TestSampleSequence:
    def test_reproducible_per_seed(self, g1):
        first = sample_sequence(g1, steps=3, seed=42)
        second = sample_sequence(g1, steps=3, seed=42)
        assert first.sequence == second.sequence
        assert first.derivation == second.derivation
        assert first.probability == second.probability

    def test_different_seeds_usually_differ(self, g1):
        words = {sample_sequence(g1, steps=2, seed=s).sequence.words for s in range(8)}
        assert len(words) > 1

    def test_record_is_consistent(self, g2):
        record = sample_sequence(g2, steps=3, seed=7)
        assert record.seed == 7
        assert len(record.sequence.words) == 4
        assert record.sequence.axiom == g2.base.axiom
        assert record.probability == pytest.approx(
            derivation_probability(g2, record.derivation), abs=1e-15
        )
        assert record.probability > 0

    def test_sampled_steps_chain(self, g2):
        record = sample_sequence(g2, steps=4, seed=5)
        for step, source, target in zip(
            record.derivation.steps,
            record.sequence.words,
            record.sequence.words[1:],
        ):
            assert step.source == source
            assert step.target == target

    def test_derivation_never_beats_the_sequence(self):
        rng = np.random.default_rng(42)
        for trial in range(30):
            g = random_generator(rng)
            record = sample_sequence(g, steps=2, seed=trial)
            total = sequence_probability(g, record.sequence)
            assert record.probability <= total.linear + 1e-12

    def test_steps_must_be_positive(self, g1):
        with pytest.raises(ValueError):
            sample_sequence(g1, steps=0, seed=0)

    def test_seed_must_be_non_negative(self, g1):
        with pytest.raises(ValueError, match="seed"):
            sample_sequence(g1, steps=1, seed=-1)

    def test_word_length_guard(self, monkeypatch):
        monkeypatch.setattr(solis.sampler, "MAX_WORD_LENGTH", 8)
        g = make_system("AA", {("A", "AA"): 1.0})
        with pytest.raises(WordLengthExceeded) as info:
            sample_sequence(g, steps=4, seed=0)
        assert info.value.length > 8


    def test_word_length_guard_fires_before_the_word_is_built(self, monkeypatch):
        """A -> A x 100 takes 100**3 symbols at step 3: the guard reports
        them from the drawn parts' lengths, without joining them."""
        monkeypatch.setattr(solis.sampler, "MAX_WORD_LENGTH", 10**4)
        g = make_system("A", {("A", "A" * 100): 1.0})
        tracemalloc.start()
        try:
            with pytest.raises(WordLengthExceeded) as info:
                sample_sequence(g, steps=3, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert info.value.length == 10**6
        assert peak < 2 * 2**20


class TestFrequencies:
    """Rule draws must follow the configured probabilities, not just any stream."""

    def test_single_step_outcome_frequencies(self, g1):
        rng = np.random.default_rng(42)
        n = 20000
        hits = 0
        for _ in range(n):
            target, _ = derive_step(g1, ("A", "A", "A"), rng)
            if target == tuple("ABABAC"):
                hits += 1
        p = 1 / 27
        sigma = (p * (1 - p) / n) ** 0.5
        assert abs(hits / n - p) < 4 * sigma

    def test_per_rule_frequencies(self, g2):
        rng = np.random.default_rng(42)
        n = 30000
        counts = {}
        for _ in range(n):
            _, assignment = derive_step(g2, ("A",), rng)
            counts[assignment.parts[0]] = counts.get(assignment.parts[0], 0) + 1
        sigma = (1 / 3 * 2 / 3 / n) ** 0.5
        for part in (("A",), ("A", "B"), ("B", "A")):
            assert abs(counts[part] / n - 1 / 3) < 4 * sigma

    def test_sampled_outcomes_are_derivable(self, g2):
        targets = {
            tuple(a + b)
            for a in ("AB", "BA", "A")
            for b in ("AB", "BA", "A")
        }
        for seed in range(25):
            record = sample_sequence(g2, steps=1, seed=seed)
            assert record.sequence.words[1] in targets

    def test_probability_matches_rule_product(self):
        g = make_system("A", {("A", "AB"): 0.25, ("A", "A"): 0.75, ("B", "B"): 1.0})
        record = sample_sequence(g, steps=2, seed=3)
        expected = 1.0
        for step in record.derivation.steps:
            for production in step.productions():
                expected *= g.prob[production]
        assert record.probability == pytest.approx(expected, abs=1e-15)


class TestRoundTrip:
    """Sampled traces must always be explainable by the system that made them."""

    def test_sequence_probability_is_positive(self):
        rng = np.random.default_rng(11)
        for trial in range(20):
            g = random_generator(rng)
            record = sample_sequence(g, steps=2, seed=100 + trial)
            value = sequence_probability(g, record.sequence)
            assert value.linear > 0.0 or value.log > float("-inf")

    def test_identity_system_fixed_point(self):
        g = make_system("AB", {("A", "A"): 1.0, ("B", "B"): 1.0})
        record = sample_sequence(g, steps=3, seed=0)
        assert record.sequence.words == (("A", "B"),) * 4
        assert record.probability == 1.0
