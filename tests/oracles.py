"""Reference implementations that the tests check the library against.

Each one computes by brute force what the library computes on the step
lattice or in closed form: p(theta) by enumerating derivations, a step's
assignments as the weak compositions of y into |x| parts, the objective by
its expanded monomials, and the maximum of a product of powers over a
weighted simplex.  None of them is part of the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Iterator, Mapping

from solis.derivations import StepAssignment, derivation_probability, enumerate_derivations
from solis.errors import IncompatibleSequence
from solis.model import Production, S0LSystem, Sequence, Word
from solis.optimal_system import PosynomialObjective


def sequence_probability_naive(g: S0LSystem, theta: Sequence) -> float:
    """Sum of derivation_probability over every derivation, by enumeration.

    Oracle for sequence_probability.  Returns 0.0 when theta is incompatible
    with g.  CapExceeded propagates.
    """
    try:
        stream = enumerate_derivations(g.base, theta)
        return math.fsum(derivation_probability(g, d) for d in stream)
    except IncompatibleSequence:
        return 0.0


def enumerate_step_assignments(x: Word, y: Word) -> Iterator[StepAssignment]:
    """Yield every assignment of y-parts to the positions of x, one per
    choice of |x|-1 nondecreasing cut positions in y.

    Oracle for the step lattice's paths.  Cuts come in lexicographically
    increasing order, e.g. for x=AA, y=ABA the parts are (eps,ABA), (A,BA),
    (AB,A), (ABA,eps).  Raises IncompatibleSequence (step 1) when x is empty
    but y is not, as free_lattice does.
    """
    if not x:
        if y:
            raise IncompatibleSequence("empty word cannot derive a non-empty word", step=1)
        return iter((StepAssignment(x, y, ()),))
    n = len(y)
    return (
        StepAssignment(x, y, tuple(y[s:e] for s, e in zip((0, *cuts), (*cuts, n))))
        for cuts in combinations_with_replacement(range(n + 1), len(x) - 1)
    )


def evaluate_monomials(obj: PosynomialObjective, x: Mapping[Production, float]) -> float:
    """Objective value by expanded monomials; requires them to be present.

    Oracle for the factored form, obj.lattice.values.
    """
    if obj.monomials is None:
        raise ValueError("objective was built without monomial expansion")
    total = 0.0
    for monomial in obj.monomials:
        term = float(monomial.coefficient)
        for production, exponent in monomial.exponents:
            term *= x.get(production, 0.0) ** exponent
        total += term
    return total


@dataclass(frozen=True)
class SimplexProductProblem:
    """Maximize prod x_i^exponents[i] subject to sum coefficients[i]*x_i = budget.

    Input of simplex_product_max.
    """

    exponents: tuple[int, ...]
    coefficients: tuple[float, ...]
    budget: float

    def __post_init__(self) -> None:
        if len(self.exponents) != len(self.coefficients):
            raise ValueError("exponents and coefficients must have equal length")
        if not self.exponents:
            raise ValueError("need at least one variable")
        if any(n <= 0 for n in self.exponents):
            raise ValueError("exponents must be positive integers")
        if any(a <= 0.0 for a in self.coefficients):
            raise ValueError("coefficients must be positive")
        if self.budget <= 0.0:
            raise ValueError("budget must be positive")


def simplex_product_max(problem: SimplexProductProblem) -> tuple[list[float], float]:
    """Closed-form argmax and maximum of the constrained product of powers.

    Oracle for derivation_bound.  argmax x_i = budget * n_i / (N * a_i) with
    N the sum of exponents; the maximum is (budget / N)^N * prod
    (n_i / a_i)^n_i.
    """
    total = sum(problem.exponents)
    argmax = [
        problem.budget * n / (total * a)
        for n, a in zip(problem.exponents, problem.coefficients)
    ]
    value = (problem.budget / total) ** total
    for n, a in zip(problem.exponents, problem.coefficients):
        value *= (n / a) ** n
    return argmax, value
