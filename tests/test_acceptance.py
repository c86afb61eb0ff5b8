"""Acceptance gate: the nine end-to-end checks this package must satisfy.

Each test evaluates one criterion at its stated tolerance, prints a single
PASS or FAIL line (run pytest with -s to see them on success; they also show
in the captured output of any failure), and then asserts.  Tolerances and
instance counts are part of the contract and must not be loosened.
"""

import math
import time

import numpy as np

from conftest import random_generator, random_sequence, random_system_for
from oracles import sequence_probability_naive
from solis import (
    Production,
    Sequence,
    best_derivation,
    build_objective,
    count_productions,
    derivation_bound,
    derivation_probability,
    enumerate_derivations,
    infer_optimal_system,
    maximize,
    sample_sequence,
    sequence_probability,
)
from solis.lattice import compile_lattice


def _report(number: int, description: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"[criterion {number}] {status}: {description}")
    assert not failures, f"criterion {number}: " + "; ".join(failures)


class TestAcceptance:
    def test_criterion_1_single_derivation_value(self, g1, theta1):
        """1/27 for the three-symbol example, by all three routes, under 1s."""
        failures = []
        start = time.perf_counter()
        derivations = list(enumerate_derivations(g1.base, theta1))
        if len(derivations) != 1:
            failures.append(f"expected 1 derivation, got {len(derivations)}")
        by_derivation = derivation_probability(g1, derivations[0])
        by_enumeration = sequence_probability_naive(g1, theta1)
        by_dp = sequence_probability(g1, theta1).linear
        elapsed = time.perf_counter() - start
        for name, value in (
            ("derivation product", by_derivation),
            ("enumeration sum", by_enumeration),
            ("dynamic program", by_dp),
        ):
            if abs(value - 1 / 27) > 1e-12:
                failures.append(f"{name} gave {value!r}, expected 1/27")
        if elapsed >= 1.0:
            failures.append(f"took {elapsed:.3f}s, limit 1s")
        _report(1, "single-derivation example equals 1/27 three ways", failures)

    def test_criterion_2_two_derivation_value(self, g2, theta2):
        """2/9 total from exactly two derivations of 1/9 each, under 1s."""
        failures = []
        start = time.perf_counter()
        derivations = list(enumerate_derivations(g2.base, theta2))
        values = [derivation_probability(g2, d) for d in derivations]
        total = sequence_probability(g2, theta2).linear
        elapsed = time.perf_counter() - start
        if len(derivations) != 2:
            failures.append(f"expected 2 derivations, got {len(derivations)}")
        for value in values:
            if abs(value - 1 / 9) > 1e-12:
                failures.append(f"derivation value {value!r}, expected 1/9")
        if abs(total - 2 / 9) > 1e-12:
            failures.append(f"total {total!r}, expected 2/9")
        if elapsed >= 1.0:
            failures.append(f"took {elapsed:.3f}s, limit 1s")
        _report(2, "two-derivation example sums to 2/9", failures)

    def test_criterion_3_best_derivation_is_sharp(self, theta2):
        """Best single derivation of (AA, ABA) scores 1/4 and attains it."""
        failures = []
        derivation, system, value = best_derivation(theta2)
        if abs(value.linear - 0.25) > 1e-12:
            failures.append(f"value {value.linear!r}, expected 0.25")
        attained = derivation_probability(system, derivation)
        if abs(attained - value.linear) > 1e-12:
            failures.append(
                f"returned system attains {attained!r}, not {value.linear!r}"
            )
        _report(3, "best derivation of (AA, ABA) is sharp at 1/4", failures)

    def test_criterion_4_best_system_support_and_value(self, theta2):
        """Best system for (AA, ABA) reaches 0.5 on the erase/copy-all pair."""
        failures = []
        system, value = infer_optimal_system(theta2)
        if abs(value.linear - 0.5) > 1e-4:
            failures.append(f"value {value.linear!r}, expected 0.5 within 1e-4")
        learned = {
            p: v for p, v in system.prob.items() if p not in system.defaults
        }
        expected = {Production("A", ()), Production("A", ("A", "B", "A"))}
        if set(learned) != expected:
            failures.append(f"support {sorted(map(str, learned))}")
        for production, prob in learned.items():
            if abs(prob - 0.5) > 1e-4:
                failures.append(f"{production} got {prob!r}, expected 0.5")
        _, _, single = best_derivation(theta2)
        if not value.linear > single.linear:
            failures.append(
                f"whole-sequence optimum {value.linear!r} does not beat "
                f"single-derivation optimum {single.linear!r}"
            )
        _report(4, "best system for (AA, ABA) reaches 0.5 on the right support", failures)

    def test_criterion_5_dynamic_program_matches_enumeration(self):
        """DP and exhaustive sum agree to 1e-12 on 120 small random instances."""
        failures = []
        rng = np.random.default_rng(20240801)
        start = time.perf_counter()
        checked = 0
        worst = 0.0
        while checked < 120:
            theta = random_sequence(rng, alphabet="AB", total_cap=10)
            g = random_system_for(theta, rng)
            naive = sequence_probability_naive(g, theta)
            fast = sequence_probability(g, theta).linear
            worst = max(worst, abs(fast - naive))
            if abs(fast - naive) > 1e-12:
                failures.append(
                    f"instance {checked}: dp {fast!r} vs enumeration {naive!r}"
                )
            checked += 1
        elapsed = time.perf_counter() - start
        if elapsed >= 30.0:
            failures.append(f"took {elapsed:.1f}s, limit 30s")
        _report(
            5,
            f"dp equals enumeration on {checked} instances (worst gap {worst:.2e})",
            failures,
        )

    def test_criterion_6_bound_dominates_probability(self):
        """p(d) <= bound(d) + 1e-12 on at least 200 random pairs."""
        failures = []
        rng = np.random.default_rng(20240802)
        pairs = 0
        while pairs < 200:
            theta = random_sequence(rng, alphabet="AB", total_cap=10)
            g = random_system_for(theta, rng)
            for d in enumerate_derivations(g.base, theta):
                bound = derivation_bound(theta, count_productions(d))
                p = derivation_probability(g, d)
                if p > bound.linear + 1e-12:
                    failures.append(f"pair {pairs}: p {p!r} above bound {bound.linear!r}")
                pairs += 1
                if pairs >= 240:
                    break
        _report(6, f"bound dominates p(d) on {pairs} sampled pairs", failures)

    def test_criterion_7_solver_is_monotone_and_feasible(self, theta1, theta2):
        """No ascent step loses more than 1e-12; blocks stay on the simplex."""
        failures = []
        rng = np.random.default_rng(20240803)
        instances = [
            theta1,
            theta2,
            Sequence.from_strings("A", "AA", "AAAA"),
        ] + [random_sequence(rng) for _ in range(5)]
        for index, theta in enumerate(instances):
            obj = build_objective(theta, cap=0)
            x_star, _, traces = maximize(obj)
            for trace in traces:
                drops = [
                    later - earlier
                    for earlier, later in zip(trace.values, trace.values[1:])
                    if later - earlier < -1e-12
                ]
                if drops:
                    failures.append(
                        f"instance {index} restart {trace.restart}: drop {min(drops)!r}"
                    )
            for symbol, block in obj.blocks.items():
                residual = abs(sum(x_star[p] for p in block) - 1.0)
                if residual > 1e-9:
                    failures.append(
                        f"instance {index} block {symbol}: residual {residual:.2e}"
                    )
        _report(7, "solver ascends monotonically and stays feasible", failures)

    def test_criterion_8_gradient_matches_finite_differences(self):
        """Analytic gradient within 1e-6 relative of central differences."""
        failures = []
        rng = np.random.default_rng(20240804)
        h = 1e-6
        instances = 0
        worst = 0.0
        while instances < 50:
            theta = random_sequence(rng, alphabet="AB", total_cap=10)
            g = random_system_for(theta, rng)
            if not g.prob:
                continue
            # dp/dx_p = p * d log p/dx_p, and x_p * d log p/dx_p is p's expected count
            lattice = compile_lattice(theta, g.base.productions)
            x = np.array([[g.prob[p] for p in lattice.variables]])
            log_p, counts = lattice.expected_counts(x)
            values = lattice.values(x)
            assert log_p.tobytes() == np.log(values).sum(axis=1).tobytes()
            grad = math.prod(values[0].tolist()) * counts[0] / x[0]
            for k, (production, analytic) in enumerate(zip(lattice.variables, grad.tolist())):
                if g.prob[production] <= 2 * h:
                    continue
                up = x.copy()
                down = x.copy()
                up[0, k] += h
                down[0, k] -= h
                fd = (
                    math.prod(lattice.values(up)[0].tolist())
                    - math.prod(lattice.values(down)[0].tolist())
                ) / (2 * h)
                scale = max(abs(analytic), abs(fd))
                if scale >= 1e-3:
                    rel = abs(analytic - fd) / scale
                    worst = max(worst, rel)
                    if rel > 1e-6:
                        failures.append(
                            f"instance {instances} {production}: rel err {rel:.2e}"
                        )
                elif abs(analytic - fd) > 1e-9:
                    failures.append(
                        f"instance {instances} {production}: tiny-gradient gap "
                        f"{abs(analytic - fd):.2e}"
                    )
            instances += 1
        _report(
            8,
            f"gradient matches finite differences on {instances} instances "
            f"(worst rel err {worst:.2e})",
            failures,
        )

    def test_criterion_9_round_trip_dominance(self):
        """Inference never explains a sampled trace worse than its generator."""
        failures = []
        rng = np.random.default_rng(20240805)
        for trial in range(20):
            g0 = random_generator(rng, alphabet="AB")
            record = sample_sequence(g0, steps=2, seed=900 + trial)
            theta = record.sequence
            generator_value = sequence_probability(g0, theta).linear
            _, value = infer_optimal_system(theta)
            if value.linear < generator_value - 1e-6:
                failures.append(
                    f"trial {trial}: inferred {value.linear!r} below "
                    f"generator {generator_value!r}"
                )
        _report(9, "inferred system dominates the sampling generator on 20 traces", failures)
