"""Core domain types: symbols, words, sequences, productions, and systems.

A symbol is a plain string (one letter in the default character mode, or an
arbitrary token in token mode).  A word is a tuple of symbols, so the empty
word is just ``()`` and ``tuple("ABA")`` is the word ABA.  Word positions are
1-based in documentation and error messages; internal storage is 0-based.

All types here are immutable after construction and safe to share freely.
Records that check nothing (LogLinear, Production) are typing.NamedTuples,
which cost less to define and to build than frozen dataclasses; the types
that validate their fields are dataclasses.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator, Mapping, NamedTuple

Symbol = str
Word = tuple[Symbol, ...]

EMPTY_WORD: Word = ()

#: Absolute tolerance for the per-predecessor "probabilities sum to 1" check.
SIMPLEX_TOL = 1e-9


class LogLinear(NamedTuple):
    """A nonnegative quantity carried both in log space and linearly.

    ``linear`` may underflow to 0.0 while ``log`` stays informative; a true
    zero has ``log == -inf``.
    """

    log: float
    linear: float


@dataclass(frozen=True)
class Sequence:
    """An ordered trace of words (w_0, ..., w_m) with m >= 1.

    w_0 plays the role of the axiom; every later word is expected to be
    derivable from its predecessor (checked where it matters, not here).
    """

    words: tuple[Word, ...]

    def __post_init__(self):
        if len(self.words) < 2:
            raise ValueError("a sequence needs at least two words (axiom plus one step)")

    @classmethod
    def from_strings(cls, *texts: str) -> "Sequence":
        """Build a sequence from plain strings, one character per symbol."""
        return cls(tuple(tuple(t) for t in texts))

    @property
    def axiom(self) -> Word:
        return self.words[0]

    @property
    def step_count(self) -> int:
        return len(self.words) - 1

    def steps(self) -> Iterator[tuple[Word, Word]]:
        """Yield the rewriting steps (w_j, w_{j+1}) in order."""
        return zip(self.words, self.words[1:])

    def symbols(self) -> frozenset[Symbol]:
        """All symbols occurring anywhere in the sequence."""
        return frozenset(s for w in self.words for s in w)


class Production(NamedTuple):
    """A rewrite rule predecessor -> successor; the successor may be empty.

    A plain tuple, so its hash is hash((predecessor, successor)) and its
    order is (predecessor, successor) lexicographic, which is the canonical
    order used everywhere productions are listed.
    """

    predecessor: Symbol
    successor: Word

    def __str__(self) -> str:
        succ = "".join(self.successor) if self.successor else "<eps>"
        return f"{self.predecessor} -> {succ}"


@dataclass(frozen=True)
class Partial0LSystem:
    """A context-free parallel rewriting system (V, axiom, P).

    Partial: a symbol may have no production at all.  Productions are stored
    deduplicated in canonical order.
    """

    alphabet: frozenset[Symbol]
    axiom: Word
    productions: tuple[Production, ...]

    def __post_init__(self):
        canonical = tuple(sorted(set(self.productions)))
        object.__setattr__(self, "productions", canonical)
        for s in self.axiom:
            if s not in self.alphabet:
                raise ValueError(f"axiom symbol {s!r} not in alphabet")
        for p in canonical:
            if p.predecessor not in self.alphabet:
                raise ValueError(f"predecessor {p.predecessor!r} not in alphabet")
            if not self.alphabet.issuperset(p.successor):
                s = next(s for s in p.successor if s not in self.alphabet)
                raise ValueError(f"successor symbol {s!r} of {p} not in alphabet")

    def productions_for(self, symbol: Symbol) -> tuple[Production, ...]:
        return tuple(p for p in self.productions if p.predecessor == symbol)


@dataclass(frozen=True)
class S0LSystem:
    """A partial 0L system plus a probability for each of its productions.

    Probabilities are strictly positive and, for every predecessor that has
    productions, sum to 1 within SIMPLEX_TOL.  Rules that would get
    probability zero must be dropped before construction, not stored.

    `defaults` marks productions that carry no evidence from data (identity
    rules added only to make an inferred system total); serialization flags
    them so users can tell them apart.
    """

    base: Partial0LSystem
    prob: Mapping[Production, float]
    defaults: frozenset[Production] = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(self, "prob", dict(self.prob))
        have = set(self.prob)
        expected = set(self.base.productions)
        if have != expected:
            raise ValueError("probability map must cover exactly the system's productions")
        if not self.defaults <= expected:
            raise ValueError("defaults must be a subset of the productions")
        sums: dict[Symbol, float] = {}
        for p, v in self.prob.items():
            if not v > 0.0:
                raise ValueError(f"probability of {p} must be strictly positive, got {v}")
            sums[p.predecessor] = sums.get(p.predecessor, 0.0) + v
        for a, s in sums.items():
            if abs(s - 1.0) > SIMPLEX_TOL:
                raise ValueError(f"probabilities for predecessor {a!r} sum to {s}, not 1")

    def probability(self, production: Production) -> float:
        """Probability of `production`, or 0.0 if the system lacks it."""
        return self.prob.get(production, 0.0)


def occurrence_counts(theta: Sequence) -> Counter[Symbol]:
    """Occurrences of each symbol across w_0..w_{m-1}, the last word excluded.

    This is the number of times the symbol gets rewritten in any derivation
    of the sequence; a symbol found only in the last word counts 0.
    """
    counts: Counter[Symbol] = Counter()
    for w in theta.words[:-1]:
        counts.update(w)
    return counts
