"""Construction of the free partial 0L-system of a sequence of words.

The free system collects, for every adjacent pair (w_i, w_{i+1}), every
production that could have fired at some position in a parallel rewriting
step, and takes the axiom from the first word.  It is the least restrictive
partial 0L-system able to derive the sequence; any system that derives the
sequence uses a subset of its productions.
"""

from __future__ import annotations

from .compositions import candidate_pairs
from .errors import IncompatibleSequence, IncompatibleStep
from .model import Partial0LSystem, Production, Sequence, Symbol, Word


def build_free_system(sequence: Sequence) -> Partial0LSystem:
    """The partial 0L-system whose productions are all step candidates.

    Symbols appearing only in the last word get no productions; they never
    need to be rewritten.  Raises IncompatibleSequence if some step is
    impossible, i.e. some w_i is empty while w_{i+1} is not (the step index
    in the error is 1-based).
    """
    pairs: set[tuple[Symbol, Word]] = set()
    for index, (x, y) in enumerate(sequence.steps(), start=1):
        try:
            pairs.update(candidate_pairs(x, y))
        except IncompatibleStep as exc:
            raise IncompatibleSequence(
                f"step {index} is impossible: {exc}", step=index
            ) from exc
    return Partial0LSystem(
        alphabet=frozenset(sequence.symbols()),
        axiom=sequence.axiom,
        productions=tuple(Production(a, z) for a, z in sorted(pairs)),
    )
