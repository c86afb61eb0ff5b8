"""solis benchmark: time to answer of the solis CLI on seeded traces.

    python3 perfbench/run.py --workload growth --seed 0 --seconds 30 --trace 0

Run from anywhere; the program under test is the `src/solis` next to this
directory.  One client runs one CLI child at a time in a closed loop: each
round is the workload's answering command, then three `prob` children of
the generating system, and rounds repeat until --seconds have passed.
Every answer is checked (see checks.py); a failed check is a failed
operation.

--trace 0 prints the end-to-end metrics, taken from untraced children only.
--trace 1 runs two untraced rounds, then the answering command in-process
under the tracer of tracing.py, and prints the per-layer metrics.  The last
line of standard output is one JSON object; the lines before it are a
readable report.  METRICS.md describes every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import select
import shutil
import signal
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
COUNTS_FILE = WORK / "counts.json"

#: child thread pools are pinned to one thread on a 2-core box
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
#: a child still running after this long is killed and counted as failed
CHILD_TIMEOUT_S = 150.0
#: prob children per round; start-up dominates them, so they need more samples
PROBS_PER_ROUND = 3
#: in-process repeats of parse + build_objective behind setup_s
SETUP_REPEATS = 5
#: untraced rounds a --trace 1 run makes before the traced ones
UNTRACED_ROUNDS_WHEN_TRACING = 2
#: direct forward passes (sequence_probability) behind derivations.step_values_ms
STEP_VALUES_REPEATS = 5
#: Before every CLI child the benchmark runs this reference child.  It starts
#: Python and imports numpy, as the CLI does, and nothing of solis, so the
#: median of its wall times measures how fast the shared machine ran during
#: this run.  End-to-end timings are scaled by REFERENCE_S / that median.
REFERENCE_CHILD = "import numpy"
#: the reference child's median wall time on the quiet 2-core box the
#: benchmark was defined on, so scaled timings read as seconds on that box
REFERENCE_S = 0.14


@dataclass
class Op:
    """One checked operation: a CLI child, or an in-process traced call."""

    kind: str  # "answer" or "prob"
    wall_s: float
    handler_s: float | None  # the time_ms the CLI prints, in seconds
    rss_mb: float
    stdout: str
    code: int = 0  # exit code
    passed: bool = False
    reason: str = ""
    value: float = float("nan")  # printed log value / log p


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "solis" / "cli.py").is_file():
        print(f"error: no solis sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH))
    from workloads import ANSWER

    if args.workload not in ANSWER:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    # SIGTERM unwinds like an exception, so the running child is killed and
    # reaped and the work directory removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.path.insert(0, str(SRC))
    run_dir = WORK / "run"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        report, result = Bench(args, run_dir).run()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for line in report:
        print(line)
    print(json.dumps(result))
    return 0


class Bench:
    def __init__(self, args: argparse.Namespace, run_dir: Path) -> None:
        self.args = args
        self.run_dir = run_dir
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.ops: list[Op] = []
        self.verdicts: dict[tuple[str, str], tuple[bool, str, float]] = {}
        self.unsteady: list[str] = []
        self.references: list[float] = []  # reference child wall times

    # -- driving ----------------------------------------------------------

    def run(self) -> tuple[list[str], dict]:
        from workloads import ANSWER, INFER_FLAGS, make_inputs

        name = self.args.workload
        started = time.perf_counter()
        self.inputs = make_inputs(name, self.args.seed, self.run_dir)
        self.sample_s = time.perf_counter() - started
        trace = str(self.inputs.trace_path)
        self.answer_argv = [ANSWER[name], trace]
        if ANSWER[name] == "infer-system":
            self.answer_argv += INFER_FLAGS
        self.prob_argv = ["prob", trace, "--system", str(self.inputs.system_path)]
        if self.args.trace:
            return self._run_traced()
        return self._run_plain()

    def _run_plain(self) -> tuple[list[str], dict]:
        setup_lib = statistics.median(self._library_setup())
        deadline = time.perf_counter() + self.args.seconds
        while True:
            self._round()
            if time.perf_counter() >= deadline:
                break
        reference = statistics.median(self.references)
        scale = REFERENCE_S / reference
        window = time.perf_counter() - self._window_start
        startup = statistics.median(self._startups())
        answers = [op for op in self.ops if op.kind == "answer"]
        probs = [op for op in self.ops if op.kind == "prob"]
        metrics = {
            "answer_s": (_time_to_answer(answers, scale, window), "s"),
            "prob_s": (_time_to_answer(probs, scale, window), "s"),
            "setup_s": (scale * (startup + setup_lib), "s"),
            "peak_rss_mb": (max(op.rss_mb for op in self.ops), "MB"),
        }
        counts = self._counts()
        label = "infer_s" if self.answer_argv[0] == "infer-system" else "derive_s"
        return self._finish(metrics, counts, [
            _timing_line(label, answers, window),
            _timing_line("prob_s", probs, window),
            f"setup_s: startup {startup:.4f} s (median of {len(self._startups())} children)"
            f" + library {setup_lib:.4f} s (median of {SETUP_REPEATS})",
            f"reference child: median {reference:.4f} s of {len(self.references)}; the times"
            f" above are raw, the metrics below are scaled by {scale:.4f}",
            f"logp_gap = {counts['logp_gap']:.6f} nats, fail_ratio = {_fail_ratio(self.ops):.4f}",
        ])

    def _run_traced(self) -> tuple[list[str], dict]:
        from tracing import Tracer
        from workloads import distinct_count_multisets, dp_cells, dp_edges

        from solis import S0LSystem, build_free_system, sequence_probability

        for _ in range(UNTRACED_ROUNDS_WHEN_TRACING):
            self._round()
        untraced = [op for op in self.ops if op.kind == "answer"]
        deadline = time.perf_counter() + max(
            0.0, self.args.seconds - (time.perf_counter() - self._window_start)
        )
        layers: list[dict[str, float]] = []
        while True:
            tracer = Tracer()
            layers.append(self._traced_answer(tracer))
            if time.perf_counter() >= deadline:
                break
        self._write_spans(tracer)

        theta = self.inputs.record.sequence
        free = build_free_system(theta)
        sizes = Counter(p.predecessor for p in free.productions)
        uniform = S0LSystem(free, {p: 1.0 / sizes[p.predecessor] for p in free.productions})
        forward = []
        for _ in range(STEP_VALUES_REPEATS):
            start = time.perf_counter()
            sequence_probability(uniform, theta)
            forward.append(time.perf_counter() - start)
        per_layer = {
            key: (statistics.median(rep[key] for rep in layers), unit)
            for key, unit in LAYER_METRICS
        }
        handler = statistics.median(op.handler_s for op in untraced if op.handler_s)
        counts = self._counts()
        counts["derivations.cells"] = dp_cells(theta)
        counts["derivations.edges"] = dp_edges(theta, free)
        for key in TRACED_COUNTS:
            counts[key] = layers[-1][key]
            if any(rep[key] != counts[key] for rep in layers):
                self.unsteady.append(f"{key} differs between traced repeats")
        enumerated = counts["derivations.derivations"]
        distinct = distinct_count_multisets(theta) / enumerated if enumerated else 0.0
        metrics = {
            **per_layer,
            "cli.startup_s": (statistics.median(self._startups()), "s"),
            "cli.stdout_bytes": (len(untraced[0].stdout.encode()), "bytes"),
            "free_system.productions": (counts["free_system.productions"], "count"),
            "derivations.step_values_ms": (1000 * statistics.median(forward), "ms"),
            "derivations.cells": (counts["derivations.cells"], "count"),
            "derivations.edges": (counts["derivations.edges"], "count"),
            "optimal_derivation.distinct_ratio": (distinct, "ratio"),
            "sampler.sample_s": (self.sample_s, "s"),
            "trace.untraced_answer_s": (handler, "s"),
            "trace.overhead_s": (per_layer["trace.answer_s"][0] - handler, "s"),
            "logp_gap": (counts["logp_gap"], "nats"),
            "fail_ratio": (_fail_ratio(self.ops), "ratio"),
        }
        for key in TRACED_COUNTS:
            metrics[key] = (counts[key], "count")
        return self._finish(metrics, counts, [
            _timing_line("untraced answer", untraced, time.perf_counter() - self._window_start),
            f"traced answer: {len(layers)} in-process repeats, median "
            f"{per_layer['trace.answer_s'][0]:.4f} s against {handler:.4f} s untraced",
            f"not traced, missing from the program: {tracer.missing or 'none'}",
            "maximize_s = step_gradients_s + update_s: "
            f"{per_layer['optimal_system.maximize_s'][0]:.4f} ="
            f" {per_layer['derivations.step_gradients_s'][0]:.4f} +"
            f" {per_layer['optimal_system.update_s'][0]:.4f} s",
        ])

    def _round(self) -> None:
        if not self.ops:
            self._window_start = time.perf_counter()
        self._check(self._child("answer", self.answer_argv))
        for _ in range(PROBS_PER_ROUND):
            self._check(self._child("prob", self.prob_argv))

    def _child(self, kind: str, argv: list[str]) -> Op:
        """Run one CLI child, after one reference child."""
        self.references.append(self._spawn(["-c", REFERENCE_CHILD])[0])
        wall, code, rss_mb, out, err = self._spawn(["-m", "solis.cli", *argv])
        op = Op(kind, wall, _handler_s(err), rss_mb, out, code)
        if code != 0:
            op.reason = f"exit code {code}: {err.strip().splitlines()[-1:]}"
        return op

    def _spawn(self, args: list[str]) -> tuple[float, int, float, str, str]:
        """Run python with args to completion: wall time, exit code, peak RSS
        in MB (from wait4, for this child alone), stdout and stderr."""
        out, err = self.run_dir / "child.out", self.run_dir / "child.err"
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o600),
            (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o600),
        ]
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *args], self.env, file_actions=actions)
        handle = os.pidfd_open(pid)
        try:
            ready, _, _ = select.select([handle], [], [], CHILD_TIMEOUT_S)
            if not ready:
                os.kill(pid, signal.SIGKILL)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            _, status, usage = os.wait4(pid, 0)
            os.close(handle)
        wall = time.perf_counter() - start
        return (
            wall,
            os.waitstatus_to_exitcode(status),
            usage.ru_maxrss / 1024.0,
            out.read_text(encoding="utf-8"),
            err.read_text(encoding="utf-8", errors="replace"),
        )

    def _traced_answer(self, tracer) -> dict[str, float]:
        """One in-process answer under the tracer; returns its layer figures."""
        from solis import cli

        stdout, stderr = io.StringIO(), io.StringIO()
        with tracer, contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = tracer.span("cli.main", cli.main, list(self.answer_argv))
        op = Op("answer", 0.0, _handler_s(stderr.getvalue()), 0.0, stdout.getvalue(), code)
        if code != 0:
            op.reason = f"exit code {code}: {stderr.getvalue().strip().splitlines()[-1:]}"
        self._check(op)
        return _layer_figures(tracer)

    # -- checks -----------------------------------------------------------

    def _check(self, op: Op) -> None:
        """Check op's answer; identical output gets the identical verdict."""
        self.ops.append(op)
        if op.reason:
            return
        key = (op.kind, op.stdout)
        if key not in self.verdicts:
            self.verdicts[key] = self._verdict(op)
        op.passed, op.reason, op.value = self.verdicts[key]

    def _verdict(self, op: Op) -> tuple[bool, str, float]:
        import checks

        from solis import SolisError

        for line in op.stdout.splitlines():
            if line.startswith("input: "):
                path, digest = line[len("input: ") :].rsplit(" sha256=", 1)
                if digest != _sha256(Path(path)):
                    return False, f"digest of {path} does not match the file", float("nan")
        try:
            if op.kind == "prob":
                return checks.check_prob(op.stdout, self.inputs)
            if self.answer_argv[0] == "infer-system":
                return checks.check_infer_system(op.stdout, self.inputs, self.run_dir)
            return checks.check_infer_derivation(op.stdout, self.inputs)
        except (SolisError, ValueError, ArithmeticError) as exc:
            return False, f"unreadable answer: {type(exc).__name__}: {exc}", float("nan")

    # -- counts and results -------------------------------------------------

    def _library_setup(self) -> list[float]:
        """In-process parse_sequence_file + build_objective(cap=0) times."""
        from solis import build_objective, parse_sequence_file

        times, sizes = [], set()
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            theta = parse_sequence_file(str(self.inputs.trace_path))
            objective = build_objective(theta, cap=0)
            times.append(time.perf_counter() - start)
            sizes.add(len(objective.variables))
        if len(sizes) != 1:
            self.unsteady.append(f"free system sizes differ between builds: {sorted(sizes)}")
        return times

    def _startups(self) -> list[float]:
        """CLI start-up per child: wall time minus the time_ms it printed."""
        return [op.wall_s - op.handler_s for op in self.ops if op.handler_s and op.wall_s]

    def _counts(self) -> dict:
        """Figures that must repeat exactly for the same code and seed."""
        from solis import build_free_system, sequence_probability

        theta = self.inputs.record.sequence
        answers = {op.stdout for op in self.ops if op.kind == "answer" and op.code == 0}
        probs = {op.stdout for op in self.ops if op.kind == "prob" and op.code == 0}
        if len(answers) > 1 or len(probs) > 1:
            self.unsteady.append("a command printed different answers for the same input")
        answer = next(op for op in self.ops if op.kind == "answer")
        gap = 0.0
        if self.answer_argv[0] == "infer-system" and not math.isnan(answer.value):
            gap = answer.value - sequence_probability(self.inputs.generator, theta).log
        return {
            "trace.sha256": _sha256(self.inputs.trace_path),
            "generator.sha256": _sha256(self.inputs.system_path),
            "answer.sha256": hashlib.sha256(answer.stdout.encode()).hexdigest(),
            "free_system.productions": len(build_free_system(theta).productions),
            "logp_gap": gap,
        }

    def _finish(self, metrics: dict, counts: dict, lines: list[str]) -> tuple[list[str], dict]:
        self._compare_counts(counts)
        failed = sum(not op.passed for op in self.ops)
        reasons = sorted({op.reason for op in self.ops if not op.passed})
        inputs = self.inputs
        report = [
            f"workload {self.args.workload} seed {self.args.seed}"
            f" (sampler seed {inputs.candidate_seed}): {inputs.record.sequence.step_count}"
            f" steps, last word {len(inputs.record.sequence.words[-1])} symbols,"
            f" generated in {self.sample_s:.3f} s",
            f"answer command: solis {' '.join(self.answer_argv)}",
            *lines,
            f"failed {failed} of {len(self.ops)} operations" + (f": {reasons}" if reasons else ""),
            f"counts: {json.dumps(counts, sort_keys=True)}",
        ]
        report += [f"unsteady: {problem}" for problem in self.unsteady]
        report += [f"{key} = {value:.6g} {unit}" for key, (value, unit) in sorted(metrics.items())]
        result = {
            "correct": not self.unsteady,
            "attempted": len(self.ops),
            "failed": failed,
            "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
        }
        return report, result

    def _compare_counts(self, counts: dict) -> None:
        """Compare exact counts with the last run of this seed and code."""
        code = hashlib.sha256()
        for path in sorted((SRC / "solis").glob("*.py")) + sorted(BENCH.glob("*.py")):
            code.update(path.read_bytes())
        key = f"{self.args.workload}/{self.args.seed}/{self.args.trace}"
        try:
            saved = json.loads(COUNTS_FILE.read_text())
        except (OSError, ValueError):
            saved = {}
        before = saved.get(key)
        if before and before["code"] == code.hexdigest() and before["counts"] != counts:
            self.unsteady.append(f"counts differ from the last run of this seed: {before['counts']}")
        saved[key] = {"code": code.hexdigest(), "counts": counts}
        partial = COUNTS_FILE.with_suffix(".tmp")
        partial.write_text(json.dumps(saved, sort_keys=True))
        partial.replace(COUNTS_FILE)

    def _write_spans(self, tracer) -> None:
        """Write the last traced repeat's spans, one JSON array per line."""
        path = WORK / f"spans-{self.args.workload}.jsonl"
        with path.open("w", encoding="utf-8") as handle:
            for span in tracer.spans:
                handle.write(json.dumps(span) + "\n")


#: per-layer figures taken from the spans of one traced answer
LAYER_METRICS = (
    ("trace.answer_s", "s"),
    ("cli.self_s", "s"),
    ("formats.parse_s", "s"),
    ("free_system.build_s", "s"),
    ("compositions.candidates_s", "s"),
    ("optimal_system.build_objective_s", "s"),
    ("optimal_system.maximize_s", "s"),
    ("optimal_system.update_s", "s"),
    ("optimal_system.assemble_s", "s"),
    ("derivations.step_gradients_s", "s"),
    ("derivations.step_gradients_ms", "ms"),
    ("derivations.probability_s", "s"),
    ("derivations.enumerate_s", "s"),
    ("derivations.enumerate_rate", "1/s"),
    ("optimal_derivation.best_s", "s"),
    ("optimal_system.converged_ratio", "ratio"),
)

#: exact counts taken from a traced answer
TRACED_COUNTS = (
    "derivations.step_gradients_calls",
    "optimal_system.iterations",
    "optimal_system.grad_evals",
    "optimal_system.support",
    "derivations.derivations",
)


def _layer_figures(tracer) -> dict[str, float]:
    spans = tracer.self_times()

    def self_s(*names: str) -> float:
        return sum(spans.get(name, (0.0, 0.0, 0))[1] for name in names)

    calls = spans.get("derivations.step_gradients", (0.0, 0.0, 0))[2]
    enumerated = tracer.items["derivations.enumerate_derivations"]
    enumerate_s = self_s("derivations.enumerate_derivations")
    figures = {
        "trace.answer_s": spans["cli.main"][0],
        "cli.self_s": self_s("cli.main"),
        "formats.parse_s": self_s("formats.parse_sequence_file", "formats.parse_system_file"),
        "free_system.build_s": self_s("free_system.build_free_system"),
        "compositions.candidates_s": self_s("compositions.candidate_productions"),
        "optimal_system.build_objective_s": self_s("optimal_system.build_objective"),
        "optimal_system.maximize_s": spans.get("optimal_system.maximize", (0.0,))[0],
        "optimal_system.update_s": self_s("optimal_system.maximize"),
        "optimal_system.assemble_s": self_s("optimal_system.assemble_system"),
        "derivations.step_gradients_s": self_s("derivations.step_gradients"),
        "derivations.step_gradients_ms": 1000 * self_s("derivations.step_gradients") / max(calls, 1),
        "derivations.step_gradients_calls": calls,
        "derivations.probability_s": self_s("derivations.sequence_probability"),
        "derivations.enumerate_s": enumerate_s,
        "derivations.derivations": enumerated,
        "derivations.enumerate_rate": enumerated / enumerate_s if enumerate_s else 0.0,
        "optimal_derivation.best_s": self_s("optimal_derivation.best_derivation"),
        "optimal_system.iterations": 0,
        "optimal_system.grad_evals": calls,
        "optimal_system.converged_ratio": 0.0,
        "optimal_system.support": 0,
    }
    for _, _, traces in tracer.results["optimal_system.maximize"]:
        figures["optimal_system.iterations"] += sum(t.iterations for t in traces)
        figures["optimal_system.converged_ratio"] = sum(t.converged for t in traces) / len(traces)
    for system in tracer.results["optimal_system.assemble_system"]:
        figures["optimal_system.support"] = len(system.prob) - len(system.defaults)
    return figures


def _handler_s(stderr: str) -> float | None:
    for line in stderr.splitlines():
        if line.startswith("time_ms: "):
            return float(line[len("time_ms: ") :]) / 1000.0
    return None


def _time_to_answer(ops: list[Op], scale: float, window_s: float) -> float:
    """Median wall time of the passing operations, times scale.

    A run where none passed is censored: no correct answer came within the
    window_s seconds the run lasted, so that is the value, unscaled.
    """
    passed = [op.wall_s for op in ops if op.passed]
    if passed:
        return scale * statistics.median(passed)
    return window_s


def _timing_line(label: str, ops: list[Op], window_s: float) -> str:
    passed = sorted(op.wall_s for op in ops if op.passed)
    if not passed:
        return f"{label}: none of {len(ops)} passed within the run's {window_s:.4f} s"
    return (
        f"{label}: median {statistics.median(passed):.4f} s, max {passed[-1]:.4f} s,"
        f" {len(passed)} passing of {len(ops)}"
    )


def _fail_ratio(ops: list[Op]) -> float:
    return sum(not op.passed for op in ops) / len(ops)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


if __name__ == "__main__":
    sys.exit(main())
