"""Forward sampling from a stochastic system: synthetic traces for testing.

Positions are rewritten independently, each drawing a production by
cumulative-probability inversion over the canonical production order.  The
generator is numpy's default PCG64, which is seedable and produces the same
stream on every platform, so sampled corpora are reproducible bit for bit.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate, chain, groupby
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .derivations import Derivation, StepAssignment, derivation_probability
from .errors import MissingProduction, WordLengthExceeded
from .model import S0LSystem, Sequence, Symbol, Word

#: abort when an intermediate word grows past this many symbols
MAX_WORD_LENGTH = 10**6


class SampleRecord(NamedTuple):
    """A sampled trace, the derivation that produced it, and its probability."""

    sequence: Sequence
    derivation: Derivation
    probability: float
    seed: int


def sample_sequence(g: S0LSystem, steps: int, seed: int) -> SampleRecord:
    """Sample a (steps+1)-word trace from g's axiom, reproducibly per seed.

    Each step draws one rule for every position of the word, in order.
    Raises MissingProduction if a word holds a symbol with no rule at all,
    and WordLengthExceeded, before the new word is built, if it would pass
    MAX_WORD_LENGTH.
    """
    if steps < 1:
        raise ValueError("steps must be a positive integer")
    if seed < 0:
        raise ValueError("seed must be a non-negative integer")
    rng = np.random.default_rng(seed)
    # canonical order lists each predecessor's rules together
    tables: dict[Symbol, tuple[tuple[Word, ...], list[float]]] = {}
    for symbol, rules in groupby(g.base.productions, attrgetter("predecessor")):
        successors, probabilities = zip(*((rule.successor, g.prob[rule]) for rule in rules))
        tables[symbol] = (successors, list(accumulate(probabilities)))
    words: list[Word] = [g.base.axiom]
    assignments: list[StepAssignment] = []
    for _ in range(steps):
        source, parts = words[-1], []
        for symbol in source:
            try:
                successors, cumulative = tables[symbol]
            except KeyError:
                raise MissingProduction(symbol) from None
            index = bisect_right(cumulative, rng.random())
            parts.append(successors[min(index, len(successors) - 1)])
        length = sum(map(len, parts))
        if length > MAX_WORD_LENGTH:
            raise WordLengthExceeded(length, MAX_WORD_LENGTH)
        words.append(tuple(chain.from_iterable(parts)))
        assignments.append(StepAssignment(source=source, target=words[-1], parts=tuple(parts)))
    derivation = Derivation(steps=tuple(assignments))
    return SampleRecord(
        sequence=Sequence(words=tuple(words)),
        derivation=derivation,
        probability=derivation_probability(g, derivation),
        seed=seed,
    )
