"""Step assignments: the order in which the oracle
enumerate_step_assignments lists them, and the candidate productions of a
step, which the free system of the one-step trace lists.

The brute-force splitter below regrows every assignment recursively, first
part first, and checks the oracle's enumeration; the enumeration in turn
checks the candidates.
"""

from itertools import product

import numpy as np
import pytest

from conftest import word
from oracles import enumerate_step_assignments
from solis import IncompatibleSequence, Production, Sequence, build_free_system


def brute_parts(x, y):
    """All tuples of |x| possibly empty words concatenating to y."""
    if len(x) == 0:
        return [()] if len(y) == 0 else []
    if len(x) == 1:
        return [(y,)]
    out = []
    for i in range(len(y) + 1):
        for rest in brute_parts(x[1:], y[i:]):
            out.append((y[:i],) + rest)
    return out


def candidate_pairs(x, y):
    """The (predecessor, successor) pairs of the free system of x => y."""
    free = build_free_system(Sequence((x, y)))
    return {(p.predecessor, p.successor) for p in free.productions}


def all_words(alphabet, max_len):
    for length in range(max_len + 1):
        for combo in product(alphabet, repeat=length):
            yield combo


class TestEnumeration:
    def test_example_order_two_positions(self):
        parts = [a.parts for a in enumerate_step_assignments(word("AA"), word("ABA"))]
        assert parts == [
            ((), ("A", "B", "A")),
            (("A",), ("B", "A")),
            (("A", "B"), ("A",)),
            (("A", "B", "A"), ()),
        ]

    def test_assignments_carry_source_and_target(self):
        assignment = next(enumerate_step_assignments(word("AB"), word("AB")))
        assert assignment.source == ("A", "B")
        assert assignment.target == ("A", "B")

    def test_parts_always_concatenate_to_target(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            x = tuple("AB"[i] for i in rng.integers(0, 2, size=rng.integers(1, 4)))
            y = tuple("AB"[i] for i in rng.integers(0, 2, size=rng.integers(0, 5)))
            for assignment in enumerate_step_assignments(x, y):
                flat = tuple(s for part in assignment.parts for s in part)
                assert flat == y

    def test_matches_brute_force_splitter(self):
        for x in all_words("AB", 3):
            for y in all_words("AB", 4):
                if not x and y:
                    continue
                got = [a.parts for a in enumerate_step_assignments(x, y)]
                assert got == brute_parts(x, y)

    def test_empty_to_empty_has_one_assignment(self):
        assignments = list(enumerate_step_assignments((), ()))
        assert len(assignments) == 1
        assert assignments[0].parts == ()

    def test_empty_source_nonempty_target_is_impossible(self):
        with pytest.raises(IncompatibleSequence) as info:
            list(enumerate_step_assignments((), word("A")))
        assert info.value.step == 1

    def test_erasing_step_has_single_assignment(self):
        assignments = list(enumerate_step_assignments(word("AB"), ()))
        assert [a.parts for a in assignments] == [((), ())]

    def test_productions_follow_positions(self):
        assignment = list(enumerate_step_assignments(word("AA"), word("ABA")))[1]
        assert list(assignment.productions()) == [
            Production("A", ("A",)),
            Production("A", ("B", "A")),
        ]


class TestCandidates:
    def test_prefix_interior_suffix_example(self):
        got = candidate_pairs(word("AA"), word("ABA"))
        expected = {
            ("A", ()),
            ("A", ("A",)),
            ("A", ("A", "B")),
            ("A", ("B", "A")),
            ("A", ("A", "B", "A")),
        }
        assert got == expected

    def test_single_position_must_produce_everything(self):
        assert candidate_pairs(word("A"), word("B")) == {("A", ("B",))}

    def test_matches_union_over_enumeration(self):
        for x in all_words("AB", 3):
            for y in all_words("AB", 4):
                if not x and y:
                    continue
                from_enum = {
                    (p.predecessor, p.successor)
                    for assignment in enumerate_step_assignments(x, y)
                    for p in assignment.productions()
                }
                assert candidate_pairs(x, y) == from_enum

    def test_empty_source_nonempty_target_is_impossible(self):
        with pytest.raises(IncompatibleSequence) as info:
            candidate_pairs((), word("B"))
        assert info.value.step == 1

    def test_empty_to_empty_needs_no_productions(self):
        assert candidate_pairs((), ()) == set()
