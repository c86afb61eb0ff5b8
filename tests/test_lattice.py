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
from conftest import DATA, SMALL_TRACES, random_system_for, traces
from oracles import enumerate_step_assignments, sequence_probability_naive
from solis import (
    DEFAULT_EXPANSION_CAP,
    CapExceeded,
    Partial0LSystem,
    Production,
    S0LSystem,
    Sequence,
    assemble_system,
    best_derivation,
    build_free_system,
    build_objective,
    enumerate_derivations,
    occurrence_counts,
    parse_sequence_file,
    sequence_probability,
)
from solis.lattice import _free_edges, compile_lattice, free_lattice, lattice_probability

WORDS = st.lists(st.sampled_from("AB"), min_size=1, max_size=4).map(tuple)
TRACES = st.lists(WORDS, min_size=2, max_size=3).map(lambda words: Sequence(tuple(words)))
SEEDS = st.integers(0, 2**32 - 1)
PROPERTY = settings(max_examples=60, deadline=None)


@PROPERTY
@given(TRACES, SEEDS)
def test_step_values_match_enumeration(theta, seed):
    g = random_system_for(theta, np.random.default_rng(seed))
    lattice = compile_lattice(theta, g.base.productions)
    kernel = math.prod(lattice.values(np.array([[g.prob[p] for p in lattice.variables]]))[0])
    assert math.isclose(kernel, sequence_probability_naive(g, theta), rel_tol=1e-12)


@PROPERTY
@given(TRACES, SEEDS, st.integers(1, 5))
def test_batched_counts_equal_single_rows(theta, seed, rows):
    """Every entry point gives each row of a batch exactly what that row
    gets alone."""
    free = build_free_system(theta)
    lattice = compile_lattice(theta, free.productions)
    weights = np.random.default_rng(seed).exponential(size=(rows, len(free.productions)))
    for entry in (lambda w: (lattice.values(w),), lattice.expected_counts):
        batched = entry(weights)
        for r in range(rows):
            for whole, alone in zip(batched, entry(weights[r : r + 1])):
                assert np.array_equal(whole[r], alone[0])


def test_index_arrays_are_int32():
    """Three int32 arrays per edge (12 bytes) and two per step."""
    theta = Sequence.from_strings("AB", "ABBA", "BAABAB")
    lattice = compile_lattice(theta, build_free_system(theta).productions)
    arrays = [v for v in lattice._asdict().values() if isinstance(v, np.ndarray)]
    assert {a.dtype for a in arrays} == {np.dtype(np.int32)}
    edges, steps = lattice.src.size, theta.step_count
    assert sum(a.nbytes for a in arrays) == 4 * (3 * edges + 2 * steps)


@PROPERTY
@given(TRACES, SEEDS)
def test_euler_identity(theta, seed):
    """p(theta) is homogeneous of degree n_a in block a's variables, so
    the expected counts of block a sum to n_a, block by block."""
    g = random_system_for(theta, np.random.default_rng(seed))
    lattice = compile_lattice(theta, g.base.productions)
    x = np.array([[g.prob[p] for p in lattice.variables]])
    _, counts = lattice.expected_counts(x)
    blocks = {}
    for p, count in zip(lattice.variables, counts[0].tolist()):
        blocks.setdefault(p.predecessor, []).append(count)
    for a, n_a in occurrence_counts(theta).items():
        assert math.isclose(math.fsum(blocks.get(a, [])), n_a, rel_tol=1e-9)


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


@pytest.mark.parametrize("n, total", [(1030, 8.69e-311), (1070, 8e-323)])
def test_subnormal_step_sums_give_exact_counts(n, total):
    """A^n => B^n under A -> B at 1/2 has the subnormal step sum 2^-n, and
    A -> B fires exactly n times: 1/S would overflow a double here."""
    theta = Sequence((("A",) * n, ("B",) * n))
    lattice = compile_lattice(theta, [Production("A", ("B",))])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values, counts = lattice.expected_counts(np.array([[0.5]]))
    assert values[0, 0] == 0.5**n
    assert math.isclose(values[0, 0], total, rel_tol=1e-2)
    assert counts.tolist() == [[float(n)]]


@settings(max_examples=80, deadline=None)
@given(SMALL_TRACES)
def test_free_lattice_size_from_word_lengths(theta):
    """free_lattice checks the edge ceiling before listing any move, from a
    closed form in the word lengths; it must be the compiled size."""
    lattice = compile_lattice(theta, build_free_system(theta).productions)
    assert _free_edges(theta) == lattice.bounds[-1]


def test_a_production_listed_twice_is_refused():
    """A variable is found by its (predecessor, substring) key, so two
    variables may not share one."""
    theta = Sequence.from_strings("AB", "ABBA")
    twice = build_free_system(theta).productions[:2] * 2
    with pytest.raises(ValueError, match="listed twice"):
        compile_lattice(theta, twice)


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
    with pytest.raises(CapExceeded) as info:
        free_lattice(theta)
    assert (info.value.count, info.value.cap) == (edges, edges - 1)
    with pytest.raises(CapExceeded):
        build_free_system(theta)


#: productions that fit no step of a trace over A, B, C of at most 4 symbols
UNFIT = (Production("D", ("A",)), Production("A", ("D",)), Production("B", tuple("ABCAB")))


@settings(max_examples=150, deadline=None)
@given(traces(4), st.data())
def test_lattice_over_a_subset_is_the_free_lattice_filtered(theta, data):
    """compile_lattice over any productions holds exactly the free lattice's
    edges whose production it lists, in the free lattice's order."""
    free = build_objective(theta, cap=0).lattice
    chosen = data.draw(st.lists(st.sampled_from(free.variables + UNFIT), unique=True))
    lattice = compile_lattice(theta, chosen)
    assert lattice.columns == free.columns
    assert np.array_equal(lattice.starts, free.starts)
    assert np.array_equal(lattice.ends, free.ends)
    index = {p: i for i, p in enumerate(chosen)}
    mapped = np.array([index.get(p, -1) for p in free.variables] + [len(chosen)])[free.var]
    keep = mapped >= 0
    assert np.array_equal(lattice.src, free.src[keep])
    assert np.array_equal(lattice.dst, free.dst[keep])
    assert np.array_equal(lattice.var, mapped[keep])
    rows = [keep[lo:hi].sum() for lo, hi in zip(free.bounds, free.bounds[1:])]
    assert lattice.bounds == tuple(np.cumsum([0] + rows).tolist())


@settings(max_examples=150, deadline=None)
@given(traces(4), SEEDS, st.floats(1e-9, 0.6))
def test_assembled_system_scores_bitwise_on_the_free_lattice(theta, seed, prune_eps):
    """Weights of 0 on the pruned productions add exactly +0.0 to every sum
    of the free lattice, so it scores an assembled system as a lattice
    compiled over that system's productions does."""
    obj = build_objective(theta, cap=0)
    rng = np.random.default_rng(seed)
    x_star = {}
    for block in obj.blocks.values():
        draws = rng.exponential(size=len(block)) ** 3
        x_star.update(zip(block, (draws / draws.sum()).tolist()))
    system = assemble_system(theta, obj, x_star, prune_eps)
    weights = np.array([[system.prob.get(p, 0.0) for p in obj.variables]])
    compiled = compile_lattice(theta, system.base.productions)
    own = np.array([[system.prob[p] for p in compiled.variables]])
    assert obj.lattice.values(weights)[0].tolist() == compiled.values(own)[0].tolist()
    assert lattice_probability(obj.lattice, system.prob) == sequence_probability(system, theta)


@pytest.mark.parametrize(
    "name, answer",
    [
        ("enum-seed0.seq", best_derivation),
        ("aa-aba.seq", lambda theta: build_objective(theta, cap=DEFAULT_EXPANSION_CAP).monomials),
        pytest.param(
            "aa-aba.seq", lambda theta: list(enumerate_derivations(None, theta)), id="enumerate"
        ),
    ],
)
def test_each_theorem_1_answer_lists_the_moves_once(monkeypatch, name, answer):
    """The multiset tables, and the enumeration under the free system, run on
    the free lattice the answer already built, not on a second lattice
    compiled over the free productions."""
    calls = []
    list_moves = solis.lattice.list_moves
    monkeypatch.setattr(
        solis.lattice, "list_moves", lambda *args: calls.append(args) or list_moves(*args)
    )
    assert answer(parse_sequence_file(str(DATA / name)))
    assert len(calls) == 1


def test_a_one_token_successor_is_not_read_as_its_letters():
    """Every symbol of A => C D is one character, so substrings are the
    joined symbols; the token CD joins to as many characters as C D does,
    and must name no substring, not the one C D names."""
    prob = {Production("A", ("CD",)): 0.5, Production("A", ("C", "D")): 0.5}
    base = Partial0LSystem(frozenset({"A", "C", "D", "CD"}), ("A",), tuple(prob))
    g = S0LSystem(base=base, prob=prob)
    assert sequence_probability(g, Sequence((("A",), ("C", "D")))).linear == 0.5


def test_a_successor_symbol_absent_from_the_trace_adds_no_edges():
    """Symbols of several characters are encoded one character each; a
    production whose successor holds a symbol the trace lacks has none."""
    theta = Sequence((("A1",), ("A1", "B2")))
    fits, unknown = Production("A1", ("A1", "B2")), Production("A1", ("A1", "X9"))
    lattice = compile_lattice(theta, [fits, unknown])
    assert 1 not in lattice.var.tolist()
    assert np.array_equal(lattice.var, compile_lattice(theta, [fits]).var)
    assert lattice.values(np.array([[0.5, 0.5]])).tolist() == [[0.5]]
