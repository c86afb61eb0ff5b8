"""Construction of the free partial 0L-system of a sequence of words.

The free system collects, for every adjacent pair (w_i, w_{i+1}), every
production that could have fired at some position in a parallel rewriting
step, and takes the axiom from the first word.  It is the least restrictive
partial 0L-system able to derive the sequence; any system that derives the
sequence uses a subset of its productions.

Those productions are exactly the distinct moves of the trace's step
lattice: position 1 of a step x => y produces a prefix of y, position |x| a
suffix, an interior position any substring, and a lone position all of y.
So they are the variables of the free lattice (lattice.free_lattice), which
every answer runs on; this module wraps them in a system for `solis free`.
"""

from __future__ import annotations

from .lattice import free_lattice
from .model import Partial0LSystem, Sequence, system_over


def build_free_system(sequence: Sequence) -> Partial0LSystem:
    """The partial 0L-system whose productions are all step candidates.

    Symbols appearing only in the last word get no productions; they never
    need to be rewritten.  Raises as lattice.free_lattice does.
    """
    return system_over(sequence, free_lattice(sequence).variables)
