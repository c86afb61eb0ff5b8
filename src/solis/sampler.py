"""Forward sampling from a stochastic system: synthetic traces for testing.

Positions are rewritten independently, each drawing a production by
cumulative-probability inversion over the canonical production order.  The
generator is numpy's default PCG64, which is seedable and produces the same
stream on every platform, so sampled corpora are reproducible bit for bit.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate, chain
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


def derive_step(
    g: S0LSystem, w: Word, rng: np.random.Generator
) -> tuple[Word, StepAssignment]:
    """Rewrite every position of w once, drawing rules from g.

    Raises MissingProduction if some symbol of w has no rule at all.
    """
    tables = _cumulative_tables(g)
    return _derive_step(tables, w, rng)


def sample_sequence(g: S0LSystem, steps: int, seed: int) -> SampleRecord:
    """Sample a (steps+1)-word trace from g's axiom, reproducibly per seed.

    Raises WordLengthExceeded if an intermediate word outgrows
    MAX_WORD_LENGTH, and MissingProduction as in derive_step.
    """
    if steps < 1:
        raise ValueError("steps must be a positive integer")
    rng = np.random.default_rng(seed)
    tables = _cumulative_tables(g)
    words: list[Word] = [g.base.axiom]
    assignments: list[StepAssignment] = []
    for _ in range(steps):
        word, assignment = _derive_step(tables, words[-1], rng)
        if len(word) > MAX_WORD_LENGTH:
            raise WordLengthExceeded(len(word), MAX_WORD_LENGTH)
        words.append(word)
        assignments.append(assignment)
    derivation = Derivation(steps=tuple(assignments))
    return SampleRecord(
        sequence=Sequence(words=tuple(words)),
        derivation=derivation,
        probability=derivation_probability(g, derivation),
        seed=seed,
    )


_Tables = dict[Symbol, tuple[tuple[Word, ...], list[float]]]


def _cumulative_tables(g: S0LSystem) -> _Tables:
    tables: _Tables = {}
    for symbol in sorted(g.base.alphabet):
        rules = g.base.productions_for(symbol)
        if not rules:
            continue
        successors = tuple(rule.successor for rule in rules)
        cumulative = list(accumulate(g.prob[rule] for rule in rules))
        tables[symbol] = (successors, cumulative)
    return tables


def _derive_step(
    tables: _Tables, w: Word, rng: np.random.Generator
) -> tuple[Word, StepAssignment]:
    parts: list[Word] = []
    for symbol in w:
        try:
            successors, cumulative = tables[symbol]
        except KeyError:
            raise MissingProduction(symbol) from None
        draw = rng.random()
        index = min(bisect_right(cumulative, draw), len(successors) - 1)
        parts.append(successors[index])
    target = tuple(chain.from_iterable(parts))
    return target, StepAssignment(source=w, target=target, parts=tuple(parts))
