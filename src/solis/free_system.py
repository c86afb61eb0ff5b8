"""Construction of the free partial 0L-system of a sequence of words.

The free system collects, for every adjacent pair (w_i, w_{i+1}), every
production that could have fired at some position in a parallel rewriting
step, and takes the axiom from the first word.  It is the least restrictive
partial 0L-system able to derive the sequence; any system that derives the
sequence uses a subset of its productions.

Those productions are exactly the distinct moves of the trace's step
lattice: position 1 of a step x => y produces a prefix of y, position |x| a
suffix, an interior position any substring, and a lone position all of y.
So the lattice module lists them, in the same array pass that compiles the
lattice over them (lattice.free_lattice).
"""

from __future__ import annotations

from .errors import IncompatibleSequence
from .lattice import StepLattice, check_edge_count, free_lattice, free_productions
from .model import Partial0LSystem, Production, Sequence


def build_free_system(sequence: Sequence) -> Partial0LSystem:
    """The partial 0L-system whose productions are all step candidates.

    Symbols appearing only in the last word get no productions; they never
    need to be rewritten.  Raises IncompatibleSequence if some step is
    impossible, i.e. some w_i is empty while w_{i+1} is not (the step index
    in the error is 1-based).  Raises CapExceeded, before listing any
    production, when the step lattice over the free system would pass the
    lattice module's EDGE_CEILING: such a system takes time and memory
    cubic in the word lengths to list, and no consumer could compile it.
    """
    _check(sequence)
    return _system(sequence, free_productions(sequence))


def build_free_lattice(sequence: Sequence) -> tuple[Partial0LSystem, StepLattice]:
    """The free system and the step lattice over its productions, from one
    listing of the moves; raises as build_free_system does."""
    _check(sequence)
    lattice = free_lattice(sequence)
    return _system(sequence, lattice.variables), lattice


def _check(sequence: Sequence) -> None:
    check_edge_count(_lattice_edges(sequence))
    for index, (x, y) in enumerate(sequence.steps(), start=1):
        if y and not x:
            raise IncompatibleSequence(
                f"step {index} is impossible: empty word cannot derive a non-empty word",
                step=index,
            )


def _system(sequence: Sequence, productions: tuple[Production, ...]) -> Partial0LSystem:
    return Partial0LSystem(
        alphabet=frozenset(sequence.symbols()), axiom=sequence.axiom, productions=productions
    )


def _lattice_edges(sequence: Sequence) -> int:
    """Edges of the step lattice over the free system, from word lengths.

    Each candidate production of a step is one move: a lone position spans
    y, the first of several moves from column 0 to any column, the last from
    any column to |y|, and an interior one from any column to any column
    not before it.  A step with fewer positions than the longest source
    adds one pass-through edge per missing position.
    """
    rows = max(len(x) for x, _ in sequence.steps())
    edges = 0
    for x, y in sequence.steps():
        m, n = len(x), len(y)
        edges += rows - m
        if m == 1:
            edges += 1
        elif m > 1:
            edges += 2 * (n + 1) + (m - 2) * (n + 1) * (n + 2) // 2
    return edges
