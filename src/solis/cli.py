"""Command line interface.

Subcommands: free, enumerate, prob, infer-derivation, infer-system, sample.
Standard output is deterministic given identical inputs and seeds (it starts
with sha256 digests of the input files); timing and diagnostics go to
standard error.  Exit codes: 0 success, 1 usage or input errors (and a
failure to write standard output or standard error), 2 sequence incompatible
with the system at hand, 3 a cap or length guard tripped, or p(theta)
left a double's range in the solver.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import math
import os
import sys
import time
from contextlib import suppress
from typing import TYPE_CHECKING

from .errors import (
    CapExceeded,
    FormatError,
    IncompatibleSequence,
    MissingProduction,
    WordLengthExceeded,
)
from .formats import (
    file_digest,
    format_real,
    needs_tokens,
    parse_sequence_file,
    parse_system_file,
    production_text,
    serialize_derivation,
    serialize_partial_system,
    serialize_system,
    serialize_word,
)

if TYPE_CHECKING:
    from .derivations import Derivation


class _Deferred:
    """Stand-in for the function `name` of a solis module, which it imports
    on its first call, so that importing this module loads no numpy (run
    turns the collector off first).  Handlers look these names up at call
    time, so a tracer may replace them."""

    def __init__(self, module: str, name: str) -> None:
        self.module = module
        self.name = name
        self.function = None

    def __call__(self, *args, **kwargs):
        if self.function is None:
            module = importlib.import_module(f".{self.module}", __package__)
            self.function = getattr(module, self.name)
        return self.function(*args, **kwargs)


build_free_system = _Deferred("free_system", "build_free_system")
count_productions = _Deferred("derivations", "count_productions")
derivation_probability = _Deferred("derivations", "derivation_probability")
enumerate_derivations = _Deferred("derivations", "enumerate_derivations")
best_derivation = _Deferred("optimal_derivation", "best_derivation")
assemble_system = _Deferred("optimal_system", "assemble_system")
build_objective = _Deferred("optimal_system", "build_objective")
maximize = _Deferred("optimal_system", "maximize")
lattice_probability = _Deferred("lattice", "lattice_probability")
sequence_probability = _Deferred("lattice", "sequence_probability")
sample_sequence = _Deferred("sampler", "sample_sequence")


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; this tool reserves 2, so use 1."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"error: usage: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="solis", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        sub = commands.add_parser(name, help=help_text)
        sub.add_argument(
            "--tokens",
            action="store_true",
            help="whitespace-separated multi-character symbols in input files",
        )
        return sub

    sub = add("free", "emit the free system of a sequence")
    sub.add_argument("sequence", help="sequence file, one word per line")

    sub = add("enumerate", "list the derivations of a sequence")
    sub.add_argument("sequence")
    sub.add_argument("--system", help="restrict to this system and report probabilities")

    sub = add("prob", "probability that a system generates a sequence")
    sub.add_argument("sequence")
    sub.add_argument("--system", required=True)

    sub = add("infer-derivation", "most probable single derivation and its system")
    sub.add_argument("sequence")

    sub = add("infer-system", "system maximizing the sequence probability")
    sub.add_argument("sequence")
    sub.add_argument("--restarts", type=int)
    sub.add_argument("--max-iters", type=int)
    sub.add_argument("--seed", type=int)

    sub = add("sample", "sample a trace from a system")
    sub.add_argument("--system", required=True)
    sub.add_argument("--steps", type=int, required=True)
    sub.add_argument("--seed", type=int, default=0)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    # each command's handler and the modules it runs beyond those imported
    # above; they are imported before the clock behind time_ms starts
    handler, modules = {
        "free": (_cmd_free, ("free_system",)),
        "enumerate": (_cmd_enumerate, ("derivations",)),
        "prob": (_cmd_prob, ("lattice",)),
        "infer-derivation": (_cmd_infer_derivation, ("optimal_derivation",)),
        "infer-system": (_cmd_infer_system, ("optimal_system",)),
        "sample": (_cmd_sample, ("sampler",)),
    }[args.command]
    for module in modules:
        importlib.import_module(f".{module}", __package__)
    start = time.perf_counter()
    code = 0
    try:
        lines = handler(args)
    except (FormatError, OSError, ValueError) as exc:
        code = _fail(1, exc)
    except (IncompatibleSequence, MissingProduction) as exc:
        code = _fail(2, exc)
    except (CapExceeded, WordLengthExceeded, ArithmeticError) as exc:
        code = _fail(3, exc)
    elapsed = (time.perf_counter() - start) * 1000.0
    # the answer first, so that a failure to write stderr cannot lose it;
    # the timing line even if writing the answer fails
    try:
        if code == 0:
            sys.stdout.write("\n".join(lines) + "\n")
    finally:
        print(f"time_ms: {elapsed:.3f}", file=sys.stderr)
    return code


def run() -> None:
    """Process entry point: run main, flush the output and end the process.

    Interpreter teardown (finalizing numpy and every object left) would add
    tens of milliseconds to each command after its answer is written, so the
    process ends with os._exit.  Under a tracer, profiler or coverage tool it
    exits through sys.exit instead, so their reports at exit are written.
    Callers of main never reach this exit.

    The cyclic garbage collector is off for the whole process, from before
    numpy is imported: a command leaves a fixed, small amount of cyclic
    garbage, whatever its input, so collections would free nothing that
    matters, yet cost milliseconds of every start-up.  Callers of main keep
    their collector.
    """
    gc.disable()
    try:
        code = main()
        sys.stdout.flush()
    except OSError as exc:  # standard output or standard error is full or closed
        with suppress(OSError):  # no report if it is standard error
            _fail(1, exc)
        code = 1
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()  # the answer, if writing stderr failed first
        except OSError:
            # the unwritten text stays buffered: send it to /dev/null, where
            # the flush of a normal exit (under a tracer, below) succeeds
            os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
    if _observed():
        sys.exit(code)
    os._exit(code)


def _observed() -> bool:
    """Whether a tracer or profiler watches this process: set by settrace or
    setprofile, or one of the six sys.monitoring tools (Python 3.12 and
    later, where cProfile registers as one)."""
    if sys.gettrace() is not None or sys.getprofile() is not None:
        return True
    monitoring = getattr(sys, "monitoring", None)
    return monitoring is not None and any(
        monitoring.get_tool(tool) is not None for tool in range(6)
    )


def _fail(code: int, exc: Exception) -> int:
    print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
    return code


def _given(args: argparse.Namespace, *names: str) -> dict:
    """The named options given on the command line, as keyword arguments;
    the library's defaults apply to the others."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def _header(command: str, paths: list[str]) -> list[str]:
    lines = [f"command: {command}"]
    for path in paths:
        lines.append(f"input: {path} sha256={file_digest(path)}")
    return lines


def _cmd_free(args: argparse.Namespace) -> list[str]:
    theta = parse_sequence_file(args.sequence, args.tokens)
    system = build_free_system(theta)
    return _header("free", [args.sequence]) + serialize_partial_system(system).splitlines()


def _cmd_enumerate(args: argparse.Namespace) -> list[str]:
    theta = parse_sequence_file(args.sequence, args.tokens)
    paths = [args.sequence]
    system = base = None
    if args.system:
        system = parse_system_file(args.system, args.tokens)
        paths.append(args.system)
        base = system.base
    derivations = list(enumerate_derivations(base, theta))
    tokens = needs_tokens(theta.symbols())
    lines = _header("enumerate", paths)
    lines.append(f"derivations: {len(derivations)}")
    probabilities = []
    for number, derivation in enumerate(derivations, start=1):
        lines.append(f"derivation {number}:")
        lines += _indented(derivation)
        counts = count_productions(derivation)
        counts_text = "; ".join(
            f"{production_text(p, tokens)}: {c}" for p, c in sorted(counts.items())
        )
        lines.append(f"  counts: {counts_text}".rstrip())
        if system is not None:
            probabilities.append(derivation_probability(system, derivation))
            lines.append(f"  p(d) = {format_real(probabilities[-1])}")
    if system is not None:
        lines.append(f"p(theta) = {format_real(math.fsum(probabilities))}")
    return lines


def _indented(derivation: Derivation) -> list[str]:
    """The derivation's serialized step lines, each indented by two spaces."""
    return [f"  {line}" for line in serialize_derivation(derivation).splitlines()]


def _cmd_prob(args: argparse.Namespace) -> list[str]:
    theta = parse_sequence_file(args.sequence, args.tokens)
    system = parse_system_file(args.system, args.tokens)
    value = sequence_probability(system, theta)
    lines = _header("prob", [args.sequence, args.system])
    lines.append(f"p(theta) = {format_real(value.linear)}")
    lines.append(f"log p(theta) = {format_real(value.log)}")
    return lines


def _cmd_infer_derivation(args: argparse.Namespace) -> list[str]:
    theta = parse_sequence_file(args.sequence, args.tokens)
    derivation, system, value = best_derivation(theta)
    lines = _header("infer-derivation", [args.sequence])
    lines.append(f"value = {format_real(value.linear)}")
    lines.append(f"log value = {format_real(value.log)}")
    lines.append("derivation:")
    lines += _indented(derivation)
    lines.extend(serialize_system(system).splitlines())
    return lines


def _cmd_infer_system(args: argparse.Namespace) -> list[str]:
    from .optimal_system import SolverConfig

    theta = parse_sequence_file(args.sequence, args.tokens)
    cfg = SolverConfig(**_given(args, "restarts", "max_iters", "seed"))
    obj = build_objective(theta, cap=0)
    x_star, best, traces = maximize(obj, cfg)
    system = assemble_system(obj, x_star)
    value = lattice_probability(obj.lattice, system.prob)
    lines = _header("infer-system", [args.sequence])
    lines.append(f"restarts: {cfg.restarts}")
    lines.append(f"best restart: {best}")
    lines.append(f"iterations: {traces[best].iterations}")
    lines.append(f"converged: {'yes' if traces[best].converged else 'no'}")
    lines.append(f"value = {format_real(value.linear)}")
    lines.append(f"log value = {format_real(value.log)}")
    lines.extend(serialize_system(system).splitlines())
    return lines


def _cmd_sample(args: argparse.Namespace) -> list[str]:
    system = parse_system_file(args.system, args.tokens)
    record = sample_sequence(system, args.steps, args.seed)
    tokens = needs_tokens(system.base.alphabet)
    lines = _header("sample", [args.system])
    lines.append(f"seed: {args.seed}")
    lines.append(f"steps: {args.steps}")
    for number, word in enumerate(record.sequence.words):
        lines.append(f"word {number}: {serialize_word(word, tokens)}")
    log = sum(
        count * math.log(system.prob[production])
        for production, count in count_productions(record.derivation).items()
    )
    lines.append(f"p(d) = {format_real(record.probability)}")
    lines.append(f"log p(d) = {format_real(log)}")
    return lines


if __name__ == "__main__":
    run()
