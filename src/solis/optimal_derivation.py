"""Best single derivation: which derivation can any system make most likely?

For a fixed derivation, the best probability assignment is a closed-form
maximization of a product of powers over weighted simplices, one simplex per
predecessor.  Plugging the production counts of the derivation in gives an
upper bound on its probability under any system, attained by setting each
production's probability to count / occurrences.  The bound depends on the
derivation only through its count multiset, and a derivation's multiset is
the sum of its steps' multisets, so the best derivation is found by scoring
the distinct multisets instead of every derivation.  Each step's multisets
are built on the step lattice, where the step's assignments are paths, and
combined step by step, by branch and bound: a partial multiset whose best
completion cannot come near the score of a multiset already in hand is
dropped before it is combined further.
"""

from __future__ import annotations

import math

import numpy as np

from .derivations import (
    DEFAULT_DERIVATION_CAP,
    SCORE_WINDOW,
    Derivation,
    ProductionCounts,
    count_multisets,
    count_productions,
)
from .lattice import free_lattice
from .model import LogLinear, S0LSystem, Sequence, occurrence_counts, system_over


def derivation_bound(theta: Sequence, counts: ProductionCounts) -> LogLinear:
    """Upper bound on the probability of a derivation with these counts.

    Over all probability assignments of all systems, a derivation's
    probability is at most prod(count^count) / prod(occ^occ), where occ
    ranges over per-symbol occurrence totals in all words but the last.
    Returned as (log, linear); the linear value is the correctly rounded
    float of the exact integer ratio, which int division gives.
    """
    occurrences = occurrence_counts(theta)
    log = 0.0
    numerator = 1
    denominator = 1
    for count in counts.values():
        log += count * math.log(count)
        numerator *= count**count
    for occ in occurrences.values():
        log -= occ * math.log(occ)
        denominator *= occ**occ
    return LogLinear(log, numerator / denominator)


def best_derivation(theta: Sequence) -> tuple[Derivation, S0LSystem, LogLinear]:
    """The derivation of theta with the highest achievable probability.

    Scores the distinct count multisets of the free system's derivations
    by the numerator of derivation_bound, whose denominator is shared:
    first in floating point as sum(count * log count), then, for the
    multisets within a relative SCORE_WINDOW of the top score, as the exact
    integer prod(count^count).  Only multisets that may reach that window
    are built (count_multisets with near_best, a branch and bound over the
    steps).  Among the exact maxima, the one whose earliest derivation
    comes first in enumerate_derivations order wins, and that derivation is
    returned.  The returned system puts probability count / occurrences on
    each used production, which attains the bound.  Raises CapExceeded, as
    enumerate_derivations does, if theta has more than
    DEFAULT_DERIVATION_CAP derivations.
    """
    lattice = free_lattice(theta)
    occurrences = occurrence_counts(theta)
    table = count_multisets(lattice, theta, DEFAULT_DERIVATION_CAP, near_best=True)
    scores = table.scores()
    near_top = np.flatnonzero(scores >= scores.max() * (1.0 - SCORE_WINDOW)).tolist()
    # max keeps the first of equal numerators, i.e. the earliest derivation
    best = max(near_top, key=lambda i: math.prod(c**c for _, c in table.counts(i)))
    derivation = table.derivation(best)
    best_counts = count_productions(derivation)
    prob = {
        production: count / occurrences[production.predecessor]
        for production, count in best_counts.items()
    }
    system = S0LSystem(base=system_over(theta, best_counts), prob=prob)
    return derivation, system, derivation_bound(theta, best_counts)

