"""Core domain types: symbols, words, sequences, productions, and systems.

A symbol is a plain string (one letter in the default character mode, or an
arbitrary token in token mode).  A word is a tuple of symbols, so the empty
word is just ``()`` and ``tuple("ABA")`` is the word ABA.  Word positions are
1-based in documentation and error messages; internal storage is 0-based.

All types here are immutable after construction and safe to share freely.
Every record is a typing.NamedTuple, which costs less to define and to
build than a frozen dataclass and spares a command importing dataclasses.
A record that validates its fields (Sequence, Partial0LSystem, S0LSystem
here; Derivation and SolverConfig elsewhere) subclasses a NamedTuple of
those fields, since a NamedTuple cannot define __new__, and checks them in
its own __new__; its _make, and so _replace, build through that __new__.
So every record, validating or not, is also a tuple of its fields: len
counts its fields (len(theta) is 1, not theta.step_count), iterating yields
the fields in order, and a record equals any tuple of the same field values.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Iterator, Mapping, NamedTuple

Symbol = str
Word = tuple[Symbol, ...]

#: Absolute tolerance for the per-predecessor "probabilities sum to 1" check.
SIMPLEX_TOL = 1e-9


class LogLinear(NamedTuple):
    """A nonnegative quantity carried both in log space and linearly.

    ``linear`` may underflow to 0.0 while ``log`` stays informative; a true
    zero has ``log == -inf``.
    """

    log: float
    linear: float


def _checked(cls, fields):
    """_make for a record that validates its fields: build through its
    __new__, so that _replace checks the new fields too."""
    return cls(*fields)


class _SequenceFields(NamedTuple):
    words: tuple[Word, ...]


class Sequence(_SequenceFields):
    """An ordered trace of words (w_0, ..., w_m) with m >= 1.

    w_0 plays the role of the axiom; every later word is expected to be
    derivable from its predecessor (checked where it matters, not here).
    """

    __slots__ = ()
    _make = classmethod(_checked)

    def __new__(cls, words: tuple[Word, ...]) -> "Sequence":
        if len(words) < 2:
            raise ValueError("a sequence needs at least two words (axiom plus one step)")
        return super().__new__(cls, words)

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
        return _rule_text(self, ())


def _rule_text(p: Production, alphabet: Iterable[Symbol]) -> str:
    """p as a rule file writes it, space-joined in token mode, which some
    symbol of the alphabet or of p may need."""
    from .formats import needs_tokens, production_text  # formats imports model

    return production_text(p, needs_tokens([*alphabet, p.predecessor, *p.successor]))


class _Partial0LSystemFields(NamedTuple):
    alphabet: frozenset[Symbol]
    axiom: Word
    productions: tuple[Production, ...]


class Partial0LSystem(_Partial0LSystemFields):
    """A context-free parallel rewriting system (V, axiom, P).

    Partial: a symbol may have no production at all.  Productions are stored
    deduplicated in canonical order.
    """

    __slots__ = ()
    _make = classmethod(_checked)

    def __new__(
        cls, alphabet: frozenset[Symbol], axiom: Word, productions: tuple[Production, ...]
    ) -> "Partial0LSystem":
        canonical = tuple(sorted(set(productions)))
        for s in axiom:
            if s not in alphabet:
                raise ValueError(f"axiom symbol {s!r} not in alphabet")
        for p in canonical:
            if p.predecessor not in alphabet:
                raise ValueError(f"predecessor {p.predecessor!r} not in alphabet")
            if not alphabet.issuperset(p.successor):
                s = next(s for s in p.successor if s not in alphabet)
                rule = _rule_text(p, alphabet)
                raise ValueError(f"successor symbol {s!r} of {rule} not in alphabet")
        return super().__new__(cls, alphabet, axiom, canonical)


def system_over(theta: Sequence, productions: Iterable[Production]) -> Partial0LSystem:
    """The system of these productions over theta's symbols, with theta's
    first word as its axiom: the free system, and the base of every system
    solis infers for theta."""
    return Partial0LSystem(frozenset(theta.symbols()), theta.axiom, productions)


class _S0LSystemFields(NamedTuple):
    base: Partial0LSystem
    prob: dict[Production, float]
    defaults: frozenset[Production]


class S0LSystem(_S0LSystemFields):
    """A partial 0L system plus a probability for each of its productions.

    Probabilities are strictly positive and, for every predecessor that has
    productions, sum to 1 within SIMPLEX_TOL.  Rules that would get
    probability zero must be dropped before construction, not stored.  The
    system keeps its own copy of `prob`, a dict.

    `defaults` marks productions that carry no evidence from data (identity
    rules added only to make an inferred system total); serialization flags
    them so users can tell them apart.
    """

    __slots__ = ()
    _make = classmethod(_checked)

    def __new__(
        cls,
        base: Partial0LSystem,
        prob: Mapping[Production, float],
        defaults: frozenset[Production] = frozenset(),
    ) -> "S0LSystem":
        prob = dict(prob)
        have = set(prob)
        expected = set(base.productions)
        if have != expected:
            raise ValueError("probability map must cover exactly the system's productions")
        if not defaults <= expected:
            raise ValueError("defaults must be a subset of the productions")
        sums: dict[Symbol, float] = {}
        for p, v in prob.items():
            if not v > 0.0:
                rule = _rule_text(p, base.alphabet)
                raise ValueError(f"probability of {rule} must be strictly positive, got {v}")
            sums[p.predecessor] = sums.get(p.predecessor, 0.0) + v
        for a, s in sums.items():
            if abs(s - 1.0) > SIMPLEX_TOL:
                raise ValueError(f"probabilities for predecessor {a!r} sum to {s}, not 1")
        return super().__new__(cls, base, prob, defaults)

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
