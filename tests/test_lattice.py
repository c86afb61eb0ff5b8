"""The step lattice against its oracles, on random small traces.

Oracles: derivation enumeration for the step values and the free system,
single-row calls for batched ones, and Euler's identity for homogeneous
polynomials for the gradient.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import solis.lattice
from conftest import SMALL_TRACES, random_system_for
from solis import (
    CapExceeded,
    Sequence,
    build_free_system,
    occurrence_counts,
    probability_gradient,
    sequence_probability,
    step_values,
)
from solis.compositions import enumerate_step_assignments
from solis.derivations import sequence_probability_naive
from solis.free_system import _lattice_edges
from solis.lattice import compile_lattice

WORDS = st.lists(st.sampled_from("AB"), min_size=1, max_size=4).map(tuple)
TRACES = st.lists(WORDS, min_size=2, max_size=3).map(lambda words: Sequence(tuple(words)))
SEEDS = st.integers(0, 2**32 - 1)
PROPERTY = settings(max_examples=60, deadline=None)


@PROPERTY
@given(TRACES, SEEDS)
def test_step_values_match_enumeration(theta, seed):
    g = random_system_for(theta, np.random.default_rng(seed))
    kernel = math.prod(step_values(g.prob, theta))
    assert math.isclose(kernel, sequence_probability_naive(g, theta), rel_tol=1e-12)


@PROPERTY
@given(TRACES, SEEDS, st.integers(1, 5))
def test_batched_counts_equal_single_rows(theta, seed, rows):
    """Every entry point gives each row of a batch exactly what that row
    gets alone."""
    free = build_free_system(theta)
    lattice = compile_lattice(theta, free.productions)
    weights = np.random.default_rng(seed).exponential(size=(rows, len(free.productions)))
    for entry in (lambda w: (lattice.values(w),), lattice.slopes, lattice.expected_counts):
        batched = entry(weights)
        for r in range(rows):
            for whole, alone in zip(batched, entry(weights[r : r + 1])):
                assert np.array_equal(whole[r], alone[0])


def test_index_arrays_are_int32():
    """Four int32 arrays per edge (16 bytes), two per step and two per pair."""
    theta = Sequence.from_strings("AB", "ABBA", "BAABAB")
    lattice = compile_lattice(theta, build_free_system(theta).productions)
    arrays = [v for v in vars(lattice).values() if isinstance(v, np.ndarray)]
    assert {a.dtype for a in arrays} == {np.dtype(np.int32)}
    edges, steps, pairs = lattice.src.size, theta.step_count, lattice.pair_var.size
    assert sum(a.nbytes for a in arrays) == 4 * (4 * edges + 2 * steps + 2 * pairs)


@PROPERTY
@given(TRACES, SEEDS)
def test_euler_identity(theta, seed):
    """p is homogeneous of degree sum_a n_a, so sum_p x_p dp/dx_p = (sum_a n_a) p."""
    g = random_system_for(theta, np.random.default_rng(seed))
    grad = probability_gradient(g, theta)
    lhs = math.fsum(g.prob[p] * slope for p, slope in grad.items())
    degree = sum(occurrence_counts(theta).values())
    assert math.isclose(lhs, degree * sequence_probability(g, theta).linear, rel_tol=1e-9)


@PROPERTY
@given(TRACES)
def test_free_system_matches_enumeration(theta):
    expected = {
        production
        for x, y in theta.steps()
        for assignment in enumerate_step_assignments(x, y)
        for production in assignment.productions()
    }
    assert build_free_system(theta).productions == tuple(sorted(expected))


def test_zero_step_sums_give_non_finite_counts_without_warning():
    theta = Sequence.from_strings("AB", "BA", "AAB")
    free = build_free_system(theta)
    weights = np.zeros((1, len(free.productions)))
    weights[0, 0] = 1.0
    lattice = compile_lattice(theta, free.productions)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values, counts = lattice.expected_counts(weights)
    assert values.min() == 0.0
    assert not np.isfinite(counts).any()


@settings(max_examples=80, deadline=None)
@given(SMALL_TRACES)
def test_free_lattice_size_from_word_lengths(theta):
    """build_free_system checks the edge ceiling before listing productions,
    from a closed form in the word lengths; it must be the compiled size."""
    lattice = compile_lattice(theta, build_free_system(theta).productions)
    assert _lattice_edges(theta) == lattice.bounds[-1]


def test_edge_ceiling_is_checked_before_assembling(monkeypatch):
    theta = Sequence.from_strings("AB", "ABBA", "BAABAB")
    variables = build_free_system(theta).productions
    edges = compile_lattice(theta, variables).bounds[-1]
    monkeypatch.setattr(solis.lattice, "EDGE_CEILING", edges)
    compile_lattice(theta, variables)
    monkeypatch.setattr(solis.lattice, "EDGE_CEILING", edges - 1)
    with pytest.raises(CapExceeded) as info:
        compile_lattice(theta, variables)
    assert (info.value.count, info.value.cap) == (edges, edges - 1)
    with pytest.raises(CapExceeded):
        build_free_system(theta)
