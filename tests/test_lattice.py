"""The step lattice against its oracles, on random small traces.

Oracles: derivation enumeration for the step values and the free system,
single-row calls for batched ones, and Euler's identity for homogeneous
polynomials for the gradient.
"""

import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import solis.lattice
from conftest import DATA, SMALL_TRACES, data_traces, random_system_for, traces
from oracles import enumerate_step_assignments, sequence_probability_naive
from solis import (
    DEFAULT_EXPANSION_CAP,
    CapExceeded,
    Partial0LSystem,
    Production,
    S0LSystem,
    Sequence,
    SolverConfig,
    assemble_system,
    best_derivation,
    build_free_system,
    build_objective,
    enumerate_derivations,
    maximize,
    occurrence_counts,
    parse_sequence_file,
    parse_system_file,
    sequence_probability,
)
from solis.cli import main
from solis.formats import production_text
from solis.lattice import _free_edges, compile_lattice, free_lattice, lattice_probability
from solis.optimal_system import PRUNE_EPS

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


@PROPERTY
@given(TRACES, SEEDS, st.integers(1, 3))
def test_sweep_starts_by_direction_and_adds_by_dtype(theta, seed, rows):
    """A forward float sweep read at the steps' end columns gives their
    sums; a backward sweep of unit integer weights read at their start
    columns counts each step's assignments, in int64 and, exactly equal,
    in Python ints."""
    lattice = free_lattice(theta)
    weights = np.random.default_rng(seed).exponential(size=(rows, len(lattice.variables)))
    assert np.array_equal(lattice.sweep(1.0, weights)[:, lattice.ends], lattice.values(weights))
    expected = [sum(1 for _ in enumerate_step_assignments(x, y)) for x, y in theta.steps()]
    for dtype in (np.int64, object):
        unit = np.ones((1, len(lattice.variables)), dtype)
        counts = lattice.sweep(1, unit, backward=True)[0, lattice.starts]
        assert counts.dtype == dtype
        assert counts.tolist() == expected
    assert all(type(count) is int for count in counts)  # the object sweep's


def test_chunked_counts_are_c_contiguous_and_equal_one_pass(monkeypatch):
    """values and expected_counts run their rows in passes of
    PASS_ENTRIES / edges, and expected_counts sums the logs of C-contiguous
    step sums, so a row's log p adds its steps in one order at any R;
    chunked, a call is bitwise the unchunked one."""
    lattice = free_lattice(parse_sequence_file(str(DATA / "long-seed0.seq")))
    weights = np.random.default_rng(0).exponential(size=(16, len(lattice.variables)))
    monkeypatch.setattr(solis.lattice, "PASS_ENTRIES", 16 * lattice.bounds[-1])
    values = lattice.values(weights)
    assert values.flags.c_contiguous
    whole = lattice.expected_counts(weights)
    assert all(array.flags.c_contiguous for array in whole)
    for rows in (1, 3):
        monkeypatch.setattr(solis.lattice, "PASS_ENTRIES", rows * lattice.bounds[-1])
        chunked = lattice.expected_counts(weights)
        assert [array.tobytes() for array in chunked] == [array.tobytes() for array in whole]
        assert lattice.values(weights).tobytes() == values.tobytes()


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
    """Also in pass buffers that a call with finite counts filled."""
    theta = Sequence.from_strings("AB", "BA", "AAB")
    free = build_free_system(theta)
    weights = np.zeros((1, len(free.productions)))
    weights[0, 0] = 1.0
    lattice = compile_lattice(theta, free.productions)
    buffers = []
    lattice.expected_counts(np.ones((2, len(free.productions))), buffers)
    for shared in (None, buffers):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            log_p, counts = lattice.expected_counts(weights, shared)
        assert lattice.values(weights).min() == 0.0
        assert log_p.tolist() == [-math.inf]
        assert not np.isfinite(counts).any()


@pytest.mark.parametrize("n, total", [(1030, 8.69e-311), (1070, 8e-323)])
def test_subnormal_step_sums_give_exact_counts(n, total):
    """A^n => B^n under A -> B at 1/2 has the subnormal step sum 2^-n, and
    A -> B fires exactly n times: 1/S would overflow a double here.  Also
    in pass buffers that a call with normal step sums filled."""
    theta = Sequence((("A",) * n, ("B",) * n))
    lattice = compile_lattice(theta, [Production("A", ("B",))])
    buffers = []
    lattice.expected_counts(np.array([[1.0], [0.75]]), buffers)
    for shared in (None, buffers):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            log_p, counts = lattice.expected_counts(np.array([[0.5]]), shared)
        values = lattice.values(np.array([[0.5]]))
        assert values[0, 0] == 0.5**n
        assert log_p.tolist() == [np.log(0.5**n)]
        assert math.isclose(values[0, 0], total, rel_tol=1e-2)
        assert counts.tolist() == [[float(n)]]


#: per sequence: the weight rows of successive calls sharing buffers, and
#: the rows per pass (None: as PASS_ENTRIES sets them)
SHARED_CALLS = {
    "ascent": ((list(range(16)), [3, 7, 11], [5], []), None),
    "growing": (([5], [3, 7], list(range(16)), [9]), 16),
    "chunk-crossing": (([0, 1, 2], [4, 9], [6, 8, 10, 12, 14], [1]), 2),
}


@pytest.mark.parametrize(
    "name, calls",
    [
        pytest.param(name, calls, id=name if calls == "ascent" else f"{name}-{calls}")
        for calls in SHARED_CALLS
        for name in ("growth-seed0", "long-seed0")
    ],
)
def test_shared_pass_buffers_never_leak_into_results(monkeypatch, name, calls):
    """Calls sharing pass buffers the way the ascent's do give each row the
    log p and counts, bytes, dtype and C order, of a fresh one-row call,
    and a log p whose bytes are the summed logs of its step sums; the
    arrays an earlier call returned do not change.  The sequences: the
    ascent's (16 rows, then 3 of them, the lost rows, then 1, then none),
    one that grows the kept schedule from 1 row to 2, then 16, and one
    whose calls cross passes of 2 rows.  Only a call of more rows than the
    kept schedule holds, up to a pass, makes it again."""
    sequence, per_pass = SHARED_CALLS[calls]
    lattice = free_lattice(parse_sequence_file(str(DATA / f"{name}.seq")))
    edges = lattice.bounds[-1]
    if per_pass is not None:
        monkeypatch.setattr(solis.lattice, "PASS_ENTRIES", per_pass * edges)
    per_pass = max(1, solis.lattice.PASS_ENTRIES // edges)
    weights = np.random.default_rng(0).exponential(size=(16, len(lattice.variables)))
    buffers, returned, held = [], [], 0
    for rows in sequence:
        results = lattice.expected_counts(weights[rows], buffers)
        held = max(held, min(len(rows), per_pass))
        assert len(buffers[1]) == held * edges
        for array in results:
            assert array.flags.c_contiguous and array.dtype == np.float64
            assert len(array) == len(rows)
        for r, row in enumerate(rows):
            alone = lattice.expected_counts(weights[row : row + 1])
            assert [a[r].tobytes() for a in results] == [a[0].tobytes() for a in alone]
            log_p = np.log(lattice.values(weights[row : row + 1])).sum(axis=1)
            assert results[0][r].tobytes() == log_p[0].tobytes()
        returned.append((results, [a.copy() for a in results]))
    for results, copies in returned:
        assert [a.tobytes() for a in results] == [a.tobytes() for a in copies]


def test_a_repeated_call_allocates_no_pass_arrays():
    """A second call made as the ascent makes it, over the first call's
    buffers, allocates less than one (R, edges) float64 array at its peak
    on long-seed0 at R = 2: its tails and intp edge variables are the
    first call's."""
    lattice = free_lattice(parse_sequence_file(str(DATA / "long-seed0.seq")))
    weights = np.random.default_rng(0).exponential(size=(2, len(lattice.variables)))
    buffers = []
    lattice.expected_counts(weights, buffers)
    tracemalloc.start()
    try:
        lattice.expected_counts(weights, buffers)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * lattice.bounds[-1] * 8


@settings(max_examples=80, deadline=None)
@given(SMALL_TRACES)
def test_free_lattice_size_from_word_lengths(theta):
    """free_lattice checks the edge ceiling before listing any move, from a
    closed form in the word lengths; it must be the compiled size."""
    lattice = compile_lattice(theta, build_free_system(theta).productions)
    assert _free_edges(theta) == lattice.bounds[-1]


def test_a_production_listed_twice_is_refused():
    """Listed moves are matched to the variables as productions, by value,
    so no production may be two variables."""
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
#: symbols of several characters, whose letters spell words of others:
#: A b and Ab, c A b and cAb
TOKENS = ("A", "b", "c", "Ab", "cAb")
#: Ab -> c Ab, then c -> cAb and Ab -> c A b, among others
SPELLED = Sequence((("Ab",), ("c", "Ab"), ("cAb", "c", "A", "b")))
#: productions that fit no step of SPELLED, though their successors' letters
#: spell those of c -> cAb and Ab -> c A b, which do
LOOKALIKES = (Production("c", ("c", "A", "b")), Production("Ab", ("cAb",)))


@settings(max_examples=150, deadline=None)
@given(st.one_of(traces(4), traces(4, [TOKENS])), st.data())
def test_lattice_over_a_subset_is_the_free_lattice_filtered(theta, data):
    """compile_lattice over any productions holds exactly the free lattice's
    edges whose production it lists, in the free lattice's order."""
    free = build_objective(theta, cap=0).lattice
    pool = free.variables + UNFIT + LOOKALIKES
    chosen = data.draw(st.lists(st.sampled_from(pool), unique=True))
    _assert_free_lattice_filtered(theta, free, chosen)


def test_tokens_are_matched_as_symbols_not_letters():
    """A token is one symbol, whatever its letters spell: c -> cAb and
    Ab -> c A b fit SPELLED, and their lookalikes, whose successors spell
    the same letters, add no edge."""
    free = build_objective(SPELLED, cap=0).lattice
    fits = [Production("c", ("cAb",)), Production("Ab", ("c", "A", "b"))]
    for chosen in (
        [Production("Ab", ("c", "Ab")), *LOOKALIKES, *fits],
        list(reversed(free.variables + LOOKALIKES)),
    ):
        _assert_free_lattice_filtered(SPELLED, free, chosen)


def _assert_free_lattice_filtered(theta, free, chosen):
    """compile_lattice(theta, chosen) is free, theta's free lattice, with
    the edges of every production not chosen dropped."""
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


#: numpy sums eight or more terms pairwise, in partial sums, not one after
#: another as a loop does, so the logs of ten steps can round differently
TEN_STEPS = Sequence.from_strings(*"A AB BA AB BBA AB BA AB BA BAB AB".split())


@settings(max_examples=150, deadline=None)
@given(traces(4), SEEDS, st.floats(0.25, 1.0))
@example(TEN_STEPS, 1, 0.5)
def test_assembled_system_scores_bitwise_on_the_free_lattice(theta, seed, share):
    """Weights of 0 on the pruned productions add exactly +0.0 to every sum
    of the free lattice, so it scores an assembled system as a lattice
    compiled over that system's productions does, and the log p(theta) it
    prints is the one the kernel gives the solver, bit for bit.  About the
    given share of each block's drawn weights, never its largest, falls
    below PRUNE_EPS."""
    obj = build_objective(theta, cap=0)
    rng = np.random.default_rng(seed)
    x_star = {}
    for block in obj.blocks.values():
        draws = rng.exponential(size=len(block)) ** 3
        low = rng.random(len(block)) < share
        low[draws.argmax()] = False
        draws[low] *= PRUNE_EPS**2
        x_star.update(zip(block, (draws / draws.sum()).tolist()))
    system = assemble_system(obj, x_star)
    weights = np.array([[system.prob.get(p, 0.0) for p in obj.variables]])
    compiled = compile_lattice(theta, system.base.productions)
    own = np.array([[system.prob[p] for p in compiled.variables]])
    assert obj.lattice.values(weights)[0].tolist() == compiled.values(own)[0].tolist()
    value = lattice_probability(obj.lattice, system.prob)
    assert value == sequence_probability(system, theta)
    assert value.log == obj.lattice.expected_counts(weights)[0][0]


@pytest.mark.parametrize(
    "name, answer",
    [
        ("enum-seed0.seq", best_derivation),
        ("aa-aba.seq", lambda theta: build_objective(theta, cap=DEFAULT_EXPANSION_CAP).monomials),
        pytest.param(
            "aa-aba.seq", lambda theta: list(enumerate_derivations(None, theta)), id="enumerate"
        ),
        pytest.param("aa-aba.seq", build_free_system, id="free"),
        pytest.param("example2.seq", lambda theta: sequence_probability(_g2(), theta), id="prob"),
        pytest.param(
            "example2.seq",
            lambda theta: list(enumerate_derivations(_g2().base, theta)),
            id="enumerate-with-system",
        ),
        pytest.param("aa-aba.seq", lambda theta: _infer_system() == 0, id="cli-infer-system"),
    ],
)
def test_each_theorem_1_answer_lists_the_moves_once(monkeypatch, name, answer):
    """The multiset tables, and the enumeration under the free system, run on
    the free lattice the answer already built, not on a second lattice
    compiled over the free productions.  An answer under a given system
    builds only the lattice over its productions, and the CLI none of its
    own."""
    calls = []
    build = solis.lattice._build
    monkeypatch.setattr(solis.lattice, "_build", lambda *args: calls.append(args) or build(*args))
    assert answer(parse_sequence_file(str(DATA / name)))
    assert len(calls) == 1


def _g2():
    return parse_system_file(str(DATA / "g2.sys"))


def _infer_system():
    """solis infer-system on aa-aba.seq, in this process; its exit code."""
    return main(["infer-system", str(DATA / "aa-aba.seq"), "--restarts", "2"])


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


#: each recorded lattice's sha256 and its name, one per line
LATTICE_DIGESTS = DATA / "lattices.sha256"
#: traces compiled over the productions of a system file
COMPILED = {
    "long-seed0": "long.sys",
    "example1": "g1.sys",
    "example2": "g2.sys",
    "tokens": "tokens.sys",
}


def _lattice_digest(lattice):
    """sha256 of every field: each array's dtype, shape and bytes, then the
    columns, the bounds and each variable as written."""
    digest = hashlib.sha256()
    for array in (lattice.starts, lattice.ends, lattice.src, lattice.dst, lattice.var):
        digest.update(f"{array.dtype.name} {array.shape}\n".encode())
        digest.update(array.tobytes())
    digest.update(f"{lattice.columns} {lattice.bounds}\n".encode())
    for p in lattice.variables:
        digest.update(f"{production_text(p, True)}\n".encode())
    return digest.hexdigest()


def _recorded_lattices():
    """Every data trace's free lattice, the same compiled over every other
    free production, and the traces compiled over their system files."""
    for path in data_traces():
        tokens = path.stem == "tokens"
        theta = parse_sequence_file(str(path), tokens=tokens)
        free = free_lattice(theta)
        yield f"{path.stem} free", free
        yield f"{path.stem} every other", compile_lattice(theta, free.variables[::2])
        if path.stem in COMPILED:
            system = parse_system_file(str(DATA / COMPILED[path.stem]), tokens=tokens)
            lattice = compile_lattice(theta, system.base.productions)
            yield f"{path.stem} {COMPILED[path.stem]}", lattice


def test_lattices_equal_the_recorded_digests():
    """Pins every lattice field, the edge order included, on the data
    traces: a rewrite of the builder must leave these bytes unchanged."""
    lines = LATTICE_DIGESTS.read_text().splitlines()
    recorded = dict(line.split(maxsplit=1)[::-1] for line in lines)
    assert {name: _lattice_digest(lattice) for name, lattice in _recorded_lattices()} == recorded


#: each recorded kernel result's sha256 and its name, one per line
KERNEL_DIGESTS = DATA / "kernel.sha256"


def _array_digest(*arrays):
    """sha256 of each array's dtype, shape and bytes, in turn."""
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(f"{array.dtype.name} {array.shape}\n".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def _recorded_kernel_results():
    """On every data trace's free lattice: values and both arrays of
    expected_counts at R = 1, 2, 3 and 16 under seeded exponential
    weights, and maximize's point, winner and traces at 2 restarts."""
    for path in data_traces():
        theta = parse_sequence_file(str(path), tokens=path.stem == "tokens")
        obj = build_objective(theta, cap=0)
        for rows in (1, 2, 3, 16):
            weights = np.random.default_rng(0).exponential(size=(rows, len(obj.variables)))
            arrays = (obj.lattice.values(weights), *obj.lattice.expected_counts(weights))
            yield f"{path.stem} R={rows}", _array_digest(*arrays)
        point, best, restarts = maximize(obj, SolverConfig(restarts=2, max_iters=20, seed=0))
        arrays = [np.array([point[p] for p in obj.variables]), np.array([best])]
        for trace in restarts:
            arrays += [np.array([trace.restart, trace.converged]), np.array(trace.values)]
        yield f"{path.stem} maximize", _array_digest(*arrays)


def test_kernel_results_equal_the_recorded_digests():
    """Pins the kernel's float results bit for bit on the data traces: a
    change to the sweep's layout must not change the order in which any
    sum adds its terms."""
    lines = KERNEL_DIGESTS.read_text().splitlines()
    recorded = dict(line.split(maxsplit=1)[::-1] for line in lines)
    assert dict(_recorded_kernel_results()) == recorded
