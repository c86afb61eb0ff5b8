"""Shared fixtures: the two worked example systems and random instance helpers."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from solis import Partial0LSystem, Production, S0LSystem, Sequence, build_free_system

DATA = Path(__file__).parent / "data"

#: one step between two random AB words of 110 and of 120 symbols, kept to
#: show that the solver fails on them (ROADMAP item 5): the recorded digests
#: pin answers, which these traces do not have yet, and at 16 restarts their
#: 11,016 and 13,150 free variables pass the restart-ceiling check's bound
UNANSWERED = ("step110", "step120")


def data_traces() -> list[Path]:
    """The sequence files in DATA, in name order, save the UNANSWERED ones."""
    return [path for path in sorted(DATA.glob("*.seq")) if path.stem not in UNANSWERED]


def _derivable(words: list[tuple[str, ...]]) -> bool:
    return not any(not x and y for x, y in zip(words, words[1:]))


def traces(max_symbols: int, alphabets=("A", "AB", "ABC")) -> st.SearchStrategy[Sequence]:
    """Traces of 2-4 words of at most max_symbols symbols over one of the
    alphabets, each a sequence of symbols: by default A (many tied
    derivations), AB or ABC; empty words never precede nonempty ones, and
    all-empty traces are included."""
    return (
        st.sampled_from(alphabets)
        .flatmap(
            lambda alphabet: st.lists(
                st.lists(st.sampled_from(alphabet), max_size=max_symbols).map(tuple),
                min_size=2,
                max_size=4,
            )
        )
        .filter(_derivable)
        .map(lambda words: Sequence(tuple(words)))
    )


SMALL_TRACES = traces(3)


def word(text: str) -> tuple[str, ...]:
    return tuple(text)


def make_system(axiom: str, rules: dict[tuple[str, str], float]) -> S0LSystem:
    """Build a system from (predecessor, successor-string) probability pairs."""
    prob = {Production(a, tuple(y)): p for (a, y), p in rules.items()}
    alphabet = set(axiom)
    for production in prob:
        alphabet.add(production.predecessor)
        alphabet.update(production.successor)
    base = Partial0LSystem(
        alphabet=frozenset(alphabet), axiom=tuple(axiom), productions=tuple(prob)
    )
    return S0LSystem(base=base, prob=prob)


@pytest.fixture
def g1() -> S0LSystem:
    """Three equiprobable rules for A; B and C copy themselves."""
    return make_system(
        "AAA",
        {
            ("A", "ABA"): 1 / 3,
            ("A", "B"): 1 / 3,
            ("A", "AC"): 1 / 3,
            ("B", "B"): 1.0,
            ("C", "C"): 1.0,
        },
    )


@pytest.fixture
def g2() -> S0LSystem:
    """Append B, prepend B, or copy, each with probability 1/3."""
    return make_system(
        "AA",
        {
            ("A", "AB"): 1 / 3,
            ("A", "BA"): 1 / 3,
            ("A", "A"): 1 / 3,
            ("B", "B"): 1.0,
            ("C", "C"): 1.0,
        },
    )


@pytest.fixture
def theta1() -> Sequence:
    return Sequence.from_strings("AAA", "ABABAC")


@pytest.fixture
def theta2() -> Sequence:
    return Sequence.from_strings("AA", "ABA")


def random_sequence(
    rng: np.random.Generator,
    alphabet: str = "AB",
    max_words: int = 3,
    total_cap: int = 10,
) -> Sequence:
    """A random trace; empty words never precede nonempty ones."""
    letters = list(alphabet)
    while True:
        count = int(rng.integers(2, max_words + 1))
        lengths = [int(rng.integers(0, 5)) for _ in range(count)]
        if sum(lengths) > total_cap:
            continue
        if any(a == 0 and b > 0 for a, b in zip(lengths, lengths[1:])):
            continue
        words = tuple(
            tuple(letters[int(i)] for i in rng.integers(0, len(letters), size=n))
            for n in lengths
        )
        return Sequence(words=words)


def random_system_for(theta: Sequence, rng: np.random.Generator) -> S0LSystem:
    """Random strictly positive probabilities on the free system's productions."""
    free = build_free_system(theta)
    blocks: dict[str, list[Production]] = {}
    for production in free.productions:
        blocks.setdefault(production.predecessor, []).append(production)
    prob: dict[Production, float] = {}
    for block in blocks.values():
        draws = rng.exponential(size=len(block)) + 1e-9
        total = float(draws.sum())
        for production, draw in zip(block, draws):
            prob[production] = float(draw) / total
    return S0LSystem(base=free, prob=prob)


def random_generator(rng: np.random.Generator, alphabet: str = "AB") -> S0LSystem:
    """A random total system usable for forward sampling."""
    letters = list(alphabet)
    prob: dict[Production, float] = {}
    for a in letters:
        wanted = int(rng.integers(1, 4))
        successors: set[tuple[str, ...]] = set()
        while len(successors) < wanted:
            length = int(rng.integers(0, 3))
            successors.add(
                tuple(letters[int(i)] for i in rng.integers(0, len(letters), size=length))
            )
        draws = rng.exponential(size=len(successors)) + 1e-9
        total = float(draws.sum())
        for successor, draw in zip(sorted(successors), draws):
            prob[Production(a, successor)] = float(draw) / total
    axiom = tuple(
        letters[int(i)] for i in rng.integers(0, len(letters), size=int(rng.integers(1, 4)))
    )
    base = Partial0LSystem(
        alphabet=frozenset(letters), axiom=axiom, productions=tuple(prob)
    )
    return S0LSystem(base=base, prob=prob)
