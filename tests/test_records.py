"""The five records that check their fields when built: Sequence,
Partial0LSystem, S0LSystem, Derivation and SolverConfig.

Each case pins what a caller can observe of a record: the exception type
and message of every rejected input, that fields cannot be assigned, that
keyword and positional construction agree, equality, the repr, and the
tuple each record is underneath; and that _replace checks its new fields as
construction does.  RestartTrace, a NamedTuple that checks nothing, is a
tuple of its fields too, and unhashable because its values are a list.
"""

import copy
import re

import pytest

from solis import optimal_system
from solis import (
    Derivation,
    Partial0LSystem,
    Production,
    RestartTrace,
    S0LSystem,
    Sequence,
    SolverConfig,
    StepAssignment,
)

A_A = Production("A", ("A",))
A_AB = Production("A", ("A", "B"))
B_B = Production("B", ("B",))
BASE = Partial0LSystem(alphabet=frozenset("A"), axiom=("A",), productions=(A_A,))
# token mode: a rule is named space-joined once some symbol of the alphabet
# has more than one character, also when the rule's own symbols have one
AB_CAB = Production("Ab", ("c", "Ab"))
AB_CZZ = Production("Ab", ("c", "Zz"))
C_CC = Production("c", ("c", "c"))
TOKENS = Partial0LSystem(frozenset({"Ab", "c"}), ("Ab",), (AB_CAB, C_CC))
GROW = StepAssignment(("A",), ("A", "B"), (("A", "B"),))
KEEP = StepAssignment(("A", "B"), ("A", "B"), (("A",), ("B",)))

#: record, keyword fields of a valid instance, its repr
VALID = [
    (Sequence, {"words": (("A",), ("A", "A"))}, "Sequence(words=(('A',), ('A', 'A')))"),
    (
        Partial0LSystem,
        {"alphabet": frozenset("A"), "axiom": ("A",), "productions": (A_A,)},
        "Partial0LSystem(alphabet=frozenset({'A'}), axiom=('A',), "
        "productions=(Production(predecessor='A', successor=('A',)),))",
    ),
    (
        S0LSystem,
        {"base": BASE, "prob": {A_A: 1.0}, "defaults": frozenset({A_A})},
        f"S0LSystem(base={BASE!r}, prob={{{A_A!r}: 1.0}}, defaults=frozenset({{{A_A!r}}}))",
    ),
    (
        Derivation,
        {"steps": (GROW, KEEP)},
        f"Derivation(steps=({GROW!r}, {KEEP!r}))",
    ),
    (
        SolverConfig,
        {"restarts": 2, "max_iters": 7, "seed": 5},
        "SolverConfig(restarts=2, max_iters=7, seed=5)",
    ),
]

#: record, keyword fields it rejects, the ValueError's message
INVALID = [
    (Sequence, {"words": ()}, "a sequence needs at least two words (axiom plus one step)"),
    (
        Sequence,
        {"words": (("A",),)},
        "a sequence needs at least two words (axiom plus one step)",
    ),
    (
        Partial0LSystem,
        {"alphabet": frozenset("A"), "axiom": ("B",), "productions": ()},
        "axiom symbol 'B' not in alphabet",
    ),
    (
        Partial0LSystem,
        {"alphabet": frozenset("A"), "axiom": ("A",), "productions": (B_B,)},
        "predecessor 'B' not in alphabet",
    ),
    (
        Partial0LSystem,
        {"alphabet": frozenset("A"), "axiom": ("A",), "productions": (A_AB,)},
        "successor symbol 'B' of A -> AB not in alphabet",
    ),
    (
        Partial0LSystem,
        {"alphabet": frozenset({"Ab", "c"}), "axiom": ("Ab",), "productions": (AB_CZZ,)},
        "successor symbol 'Zz' of Ab -> c Zz not in alphabet",
    ),
    (
        S0LSystem,
        {"base": BASE, "prob": {}},
        "probability map must cover exactly the system's productions",
    ),
    (
        S0LSystem,
        {"base": BASE, "prob": {A_A: 1.0, A_AB: 0.0}},
        "probability map must cover exactly the system's productions",
    ),
    (
        S0LSystem,
        {"base": BASE, "prob": {A_A: 1.0}, "defaults": frozenset({A_AB})},
        "defaults must be a subset of the productions",
    ),
    (
        S0LSystem,
        {"base": BASE, "prob": {A_A: 0.0}},
        "probability of A -> A must be strictly positive, got 0.0",
    ),
    (
        S0LSystem,
        {"base": BASE, "prob": {A_A: float("nan")}},
        "probability of A -> A must be strictly positive, got nan",
    ),
    (
        S0LSystem,
        {"base": BASE, "prob": {A_A: 0.5}},
        "probabilities for predecessor 'A' sum to 0.5, not 1",
    ),
    (
        S0LSystem,
        {"base": TOKENS, "prob": {AB_CAB: 0.0, C_CC: 1.0}, "defaults": frozenset()},
        "probability of Ab -> c Ab must be strictly positive, got 0.0",
    ),
    (
        S0LSystem,
        {"base": TOKENS, "prob": {AB_CAB: 1.0, C_CC: 0.0}, "defaults": frozenset()},
        "probability of c -> c c must be strictly positive, got 0.0",
    ),
    (
        Derivation,
        {"steps": (KEEP, GROW)},
        "steps do not chain: ('A', 'B') != ('A',)",
    ),
    (SolverConfig, {"restarts": 0}, "restarts must be positive"),
    (SolverConfig, {"restarts": -1}, "restarts must be positive"),
    (SolverConfig, {"max_iters": 0}, "max_iters must be positive"),
    (SolverConfig, {"max_iters": -1}, "max_iters must be positive"),
    (SolverConfig, {"seed": -1}, "seed must be non-negative"),
]


valid = pytest.mark.parametrize(
    "record, fields, text", VALID, ids=[case[0].__name__ for case in VALID]
)


@pytest.mark.parametrize(
    "record, fields, message", INVALID, ids=[case[0].__name__ for case in INVALID]
)
def test_invalid_fields_raise_value_error(record, fields, message):
    with pytest.raises(ValueError) as caught:
        record(**fields)
    assert type(caught.value) is ValueError
    assert str(caught.value) == message


@pytest.mark.parametrize(
    "record, fields, message", INVALID, ids=[case[0].__name__ for case in INVALID]
)
def test_replace_checks_the_new_fields(record, fields, message):
    """_replace, which a NamedTuple builds through _make, runs the checks."""
    built = next(record(**valid) for kind, valid, _ in VALID if kind is record)
    with pytest.raises(ValueError, match=re.escape(message)):
        built._replace(**fields)


@valid
def test_fields_cannot_be_assigned(record, fields, text):
    built = record(**fields)
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(built, name, value)
    assert {name: getattr(built, name) for name in fields} == fields


@valid
def test_keyword_and_positional_construction_agree(record, fields, text):
    assert record(*fields.values()) == record(**fields)


@valid
def test_equal_values_compare_equal(record, fields, text):
    built, again = record(**fields), record(**copy.deepcopy(fields))
    assert built == again and not built != again
    if record is not S0LSystem:  # its prob field is a dict
        assert hash(built) == hash(again)


@valid
def test_repr_names_the_fields(record, fields, text):
    assert repr(record(**fields)) == text


def test_system_copies_its_probabilities():
    """S0LSystem stores its own dict, so a later change to the mapping it
    was built from does not reach it."""
    prob = {A_A: 1.0}
    system = S0LSystem(BASE, prob)
    prob[A_AB] = 0.5
    assert system.prob == {A_A: 1.0} and type(system.prob) is dict
    assert system.defaults == frozenset()


def test_unequal_values_compare_unequal():
    assert Sequence.from_strings("A", "A") != Sequence.from_strings("A", "AA")
    assert SolverConfig(seed=1) != SolverConfig(seed=2)


def test_solver_config_defaults():
    assert SolverConfig() == SolverConfig(16, 5000, 0)
    assert (optimal_system.REL_TOL, optimal_system.PRUNE_EPS) == (1e-10, 1e-9)


@valid
def test_records_are_tuples_of_their_fields(record, fields, text):
    """Each record is a NamedTuple underneath, so it has a tuple's length,
    iteration and equality: len(theta) is 1, not theta.step_count."""
    built = record(**fields)
    assert len(built) == len(fields)
    assert list(built) == list(fields.values())
    assert built == tuple(fields.values())


def test_restart_traces_compare_by_value():
    """A RestartTrace is a NamedTuple too, so it equals the tuple of its
    fields; its values are a list, so it cannot be hashed."""
    trace = RestartTrace(0, [-2.0, -1.0], True)
    assert trace == RestartTrace(0, [-2.0, -1.0], True)
    assert trace != RestartTrace(0, [-2.0, -1.0])
    assert trace == (0, [-2.0, -1.0], True)
    with pytest.raises(TypeError):
        hash(trace)
