"""Command line behavior: outputs, determinism, and exit codes."""

import math
import time

import numpy as np
import pytest

import solis.optimal_system
import solis.sampler
from conftest import DATA
from solis.cli import main
from solis.formats import format_real, parse_sequence_file, parse_system_file, serialize_system
from solis.lattice import sequence_probability


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_recorded(out, name, command):
    """out equals the stdout recorded in DATA / name.command.out, which was
    run on files in tests/data from the repository root."""
    recorded = (DATA / f"{name}.{command}.out").read_text()
    assert out == recorded.replace("input: tests/data/", f"input: {DATA}/")


class TestFree:
    def test_emits_the_free_system(self, capsys):
        code, out, _ = run(capsys, "free", str(DATA / "aa-aba.seq"))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "command: free"
        assert lines[1].startswith(f"input: {DATA / 'aa-aba.seq'} sha256=")
        assert "alphabet: A B" in lines
        assert "rule: A -> <eps>" in lines
        assert "rule: A -> ABA" in lines

    def test_stdout_is_byte_identical_across_runs(self, capsys):
        _, first, _ = run(capsys, "free", str(DATA / "aa-aba.seq"))
        _, second, _ = run(capsys, "free", str(DATA / "aa-aba.seq"))
        assert first == second

    @pytest.mark.parametrize("name", ["aa-aba", "example2", "eps-letters"])
    def test_recorded_output(self, capsys, name):
        code, out, _ = run(capsys, "free", str(DATA / f"{name}.seq"))
        assert code == 0
        assert_recorded(out, name, "free")


class TestProb:
    def test_example_probability(self, capsys):
        code, out, _ = run(
            capsys,
            "prob",
            str(DATA / "example2.seq"),
            "--system",
            str(DATA / "g2.sys"),
        )
        assert code == 0
        assert "p(theta) = 0.222222222222" in out
        assert f"log p(theta) = {format_real(math.log(2 / 9))}" in out

    def test_single_derivation_example(self, capsys):
        code, out, _ = run(
            capsys,
            "prob",
            str(DATA / "example1.seq"),
            "--system",
            str(DATA / "g1.sys"),
        )
        assert code == 0
        assert f"p(theta) = {format_real(1 / 27)}" in out

    def test_incompatible_sequence_is_probability_zero(self, capsys, tmp_path):
        trace = tmp_path / "trace.seq"
        trace.write_text("AAA\nBBBBBB\n")
        code, out, _ = run(
            capsys, "prob", str(trace), "--system", str(DATA / "g1.sys")
        )
        assert code == 0
        assert "p(theta) = 0" in out.splitlines()
        assert "log p(theta) = -inf" in out.splitlines()

    def test_trace_from_another_axiom_is_probability_zero(self, capsys, tmp_path):
        trace = tmp_path / "trace.seq"
        trace.write_text("B\nB\n")
        code, out, _ = run(capsys, "prob", str(trace), "--system", str(DATA / "g1.sys"))
        assert code == 0
        assert out.splitlines()[-2:] == ["p(theta) = 0", "log p(theta) = -inf"]

    def test_recorded_output_of_a_long_trace(self, capsys):
        """120 steps of ten symbols under their generator, long.sys; the
        recorded stdout was written when p(theta) was computed in the
        derivations module."""
        code, out, _ = run(
            capsys, "prob", str(DATA / "long-seed0.seq"), "--system", str(DATA / "long.sys")
        )
        assert code == 0
        assert_recorded(out, "long-seed0", "prob")

    def test_timing_goes_to_stderr(self, capsys):
        _, out, err = run(
            capsys,
            "prob",
            str(DATA / "example2.seq"),
            "--system",
            str(DATA / "g2.sys"),
        )
        assert "time_ms" not in out
        assert "time_ms:" in err


class TestEnumerate:
    def test_free_enumeration_counts(self, capsys):
        code, out, _ = run(capsys, "enumerate", str(DATA / "aa-aba.seq"))
        assert code == 0
        assert "derivations: 4" in out

    def test_system_restriction_and_probabilities(self, capsys):
        code, out, _ = run(
            capsys,
            "enumerate",
            str(DATA / "example2.seq"),
            "--system",
            str(DATA / "g2.sys"),
        )
        assert code == 0
        lines = out.splitlines()
        assert "derivations: 2" in lines
        assert lines.count("  p(d) = 0.111111111111") == 2
        assert "p(theta) = 0.222222222222" in lines
        assert "  step 1: A | BA" in lines
        assert "  step 1: AB | A" in lines

    def test_incompatible_sequence_exits_2(self, capsys, tmp_path):
        trace = tmp_path / "trace.seq"
        trace.write_text("AAA\nBBBBBB\n")
        code, _, err = run(
            capsys, "enumerate", str(trace), "--system", str(DATA / "g1.sys")
        )
        assert code == 2
        assert "error: IncompatibleSequence" in err

    def test_trace_from_another_axiom_exits_2(self, capsys, tmp_path):
        trace = tmp_path / "trace.seq"
        trace.write_text("B\nB\n")
        code, out, err = run(capsys, "enumerate", str(trace), "--system", str(DATA / "g1.sys"))
        assert code == 2
        assert out == ""
        assert (
            "error: IncompatibleSequence: the trace starts at B, not at the system's axiom AAA"
            in err.splitlines()
        )

    def test_cap_exits_3(self, capsys):
        """Words of 1 to 34 symbols: far more derivations than the cap."""
        code, out, err = run(capsys, "enumerate", str(DATA / "growth-seed0.seq"))
        assert code == 3
        assert out == ""
        assert "error: CapExceeded" in err

    def test_recorded_output_under_the_free_system(self, capsys):
        code, out, _ = run(capsys, "enumerate", str(DATA / "aa-aba.seq"))
        assert code == 0
        assert_recorded(out, "aa-aba", "enumerate")

    def test_recorded_output_under_a_system(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", str(DATA / "example2.seq"), "--system", str(DATA / "g2.sys")
        )
        assert code == 0
        assert_recorded(out, "example2", "enumerate")


class TestInferDerivation:
    def test_two_word_example(self, capsys):
        code, out, _ = run(capsys, "infer-derivation", str(DATA / "aa-aba.seq"))
        assert code == 0
        lines = out.splitlines()
        assert "value = 0.25" in lines
        assert f"log value = {format_real(math.log(0.25))}" in lines
        assert "  step 1: <eps> | ABA" in lines
        assert "rule: A -> <eps> p=0.5" in lines
        assert "rule: A -> ABA p=0.5" in lines

    def test_repeated_rule_example(self, capsys):
        code, out, _ = run(capsys, "infer-derivation", str(DATA / "example1.seq"))
        assert code == 0
        assert f"value = {format_real(4 / 27)}" in out
        assert "rule: A -> <eps> p=0.666666666667" in out
        assert "rule: A -> ABABAC p=0.333333333333" in out

    def test_recorded_output_of_a_large_derivation_space(self, capsys):
        """173,264 derivations in 59,575 count multisets; the recorded stdout
        was written by the search that scored every derivation in turn."""
        code, out, _ = run(capsys, "infer-derivation", str(DATA / "enum-seed0.seq"))
        assert code == 0
        assert_recorded(out, "enum-seed0", "infer-derivation")

    def test_recorded_output_of_five_million_derivations(self, capsys):
        """5,250,960 derivations, under the default cap; the recorded stdout
        was written by the search that built every count multiset."""
        code, out, _ = run(capsys, "infer-derivation", str(DATA / "derivations-5m.seq"))
        assert code == 0
        assert_recorded(out, "derivations-5m", "infer-derivation")


@pytest.mark.parametrize("command", ["infer-derivation", "enumerate"])
def test_empty_step_prints_as_eps(capsys, tmp_path, command):
    """The one derivation of <eps>, <eps> rewrites nothing, and its step
    prints as <eps>, not as an empty line."""
    path = tmp_path / "empty.seq"
    path.write_text("<eps>\n<eps>\n")
    code, out, _ = run(capsys, command, str(path))
    assert code == 0
    assert "  step 1: <eps>" in out.splitlines()


@pytest.mark.parametrize("trace", ["aa-aba", "tokens", "empty"])
@pytest.mark.parametrize(
    "command", ["free", "enumerate", "infer-derivation", "infer-system", "prob", "sample"]
)
def test_no_stdout_line_ends_in_whitespace(capsys, tmp_path, command, trace):
    """No command ends a line of stdout in whitespace, also on a trace of
    empty words, whose alphabet and derivation counts are empty."""
    flags, sequence, system = [], tmp_path / "trace.seq", tmp_path / "trace.sys"
    if trace == "tokens":
        flags, sequence, system = ["--tokens"], DATA / "tokens.seq", DATA / "tokens.sys"
    elif trace == "aa-aba":
        sequence = DATA / "aa-aba.seq"
        system.write_text("axiom: AA\nrule: A -> A p=1/2\nrule: A -> BA p=1/2\nrule: B -> B p=1\n")
    else:
        sequence.write_text("<eps>\n<eps>\n")
        system.write_text("axiom: <eps>\n")
    if command == "sample":
        argv = [command, *flags, "--system", str(system), "--steps", "3", "--seed", "0"]
    else:
        argv = [command, *flags, str(sequence)]
        if command == "prob":
            argv += ["--system", str(system)]
        if command == "infer-system":
            argv += ["--restarts", "2"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert [line for line in out.splitlines() if line != line.rstrip()] == []


class TestInferSystem:
    def test_two_word_example(self, capsys):
        code, out, _ = run(
            capsys, "infer-system", str(DATA / "aa-aba.seq"), "--seed", "7"
        )
        assert code == 0
        lines = out.splitlines()
        assert "value = 0.5" in lines
        assert "converged: yes" in lines
        assert "rule: A -> <eps> p=0.5" in lines
        assert "rule: A -> ABA p=0.5" in lines
        assert "rule: B -> B p=1 # default" in lines

    def test_deterministic_given_seed(self, capsys):
        _, first, _ = run(
            capsys, "infer-system", str(DATA / "aa-aba.seq"), "--seed", "7"
        )
        _, second, _ = run(
            capsys, "infer-system", str(DATA / "aa-aba.seq"), "--seed", "7"
        )
        assert first == second

    def test_recorded_output_of_a_long_trace(self, capsys):
        """120 steps of ten symbols; the recorded stdout was written by the
        kernel that scattered all restarts with one flat np.bincount."""
        code, out, _ = run(
            capsys, "infer-system", str(DATA / "long-seed0.seq"), "--restarts", "2",
            "--max-iters", "20", "--seed", "0",
        )
        assert code == 0
        assert_recorded(out, "long-seed0", "infer-system")

    def test_recorded_output_of_a_growth_trace(self, capsys):
        """8 steps of words growing to 38 symbols (the growth workload's
        seed-0 trace): long successors, interior substrings and the
        pass-through edges of steps with fewer positions."""
        code, out, _ = run(
            capsys, "infer-system", str(DATA / "growth-seed0.seq"), "--restarts", "2",
            "--max-iters", "20", "--seed", "0",
        )
        assert code == 0
        assert_recorded(out, "growth-seed0", "infer-system")

    def test_recorded_output_of_a_trace_with_long_words(self, capsys):
        """5 steps with words of up to 68 symbols (the found-rng84 trace):
        89,255 edges, the most of any recorded trace."""
        code, out, _ = run(
            capsys, "infer-system", str(DATA / "found-rng84.seq"), "--restarts", "2",
            "--max-iters", "20", "--seed", "0",
        )
        assert code == 0
        assert_recorded(out, "found-rng84", "infer-system")

    def test_too_many_restarts_exit_3(self, capsys, monkeypatch):
        """A million restarts of growth-seed0's 1,330 free productions would
        need arrays of 1.33e9 entries: refused with exit 3, not a
        MemoryError, before any start point is drawn."""

        def refuse(*args):
            raise AssertionError("a start point was drawn")

        monkeypatch.setattr(solis.optimal_system, "_start_point", refuse)
        code, out, err = run(
            capsys, "infer-system", str(DATA / "growth-seed0.seq"), "--restarts", "1000000"
        )
        assert code == 3
        assert out == ""
        assert (
            "error: CapExceeded: 1000000 restarts of 1330 variables would hold 1330000000"
            " entries per array, ceiling is 10000000"
        ) in err

    def test_trace_of_empty_words(self, capsys, tmp_path):
        """The empty system derives <eps>, <eps> with probability 1, as
        infer-derivation answers."""
        path = tmp_path / "empty.seq"
        path.write_text("<eps>\n<eps>\n")
        code, out, _ = run(capsys, "infer-system", str(path))
        assert code == 0
        assert out.splitlines()[2:] == [
            "restarts: 16",
            "best restart: 0",
            "iterations: 0",
            "converged: yes",
            "value = 1",
            "log value = 0",
            "axiom: <eps>",
        ]

    def test_solver_flags_are_accepted(self, capsys):
        code, out, _ = run(
            capsys,
            "infer-system",
            str(DATA / "aa-aba.seq"),
            "--restarts",
            "4",
            "--max-iters",
            "500",
            "--seed",
            "3",
        )
        assert code == 0
        assert "restarts: 4" in out
        for flag, value in (("--tol", "1e-9"), ("--prune-eps", "1e-8")):
            code, out, err = run(capsys, "infer-system", str(DATA / "aa-aba.seq"), flag, value)
            assert (code, out) == (1, "")
            assert "error: usage:" in err

    def test_a_trace_whose_p_underflows_at_every_start_exits_3(self, capsys):
        """One step between two random 120-symbol AB words: p(theta) is below
        a double's range at both starts, so no restart can ascend."""
        code, out, err = run(capsys, "infer-system", str(DATA / "step120.seq"), "--restarts", "2")
        assert (code, out) == (3, "")
        assert err.splitlines()[0] == (
            "error: ArithmeticError: p(theta) underflows a double at every start"
        )

    def test_bad_solver_flags_exit_1(self, capsys):
        code, _, err = run(
            capsys, "infer-system", str(DATA / "aa-aba.seq"), "--restarts", "0"
        )
        assert code == 1
        assert "error: ValueError" in err


class TestSample:
    def test_reproducible_per_seed(self, capsys):
        args = ("sample", "--system", str(DATA / "g2.sys"), "--steps", "3", "--seed", "5")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second
        assert first.splitlines()[0] == "command: sample"

    def test_output_shape(self, capsys):
        code, out, _ = run(
            capsys, "sample", "--system", str(DATA / "g1.sys"), "--steps", "2"
        )
        assert code == 0
        lines = out.splitlines()
        assert "seed: 0" in lines
        assert "steps: 2" in lines
        assert sum(1 for line in lines if line.startswith("word ")) == 3
        assert lines[-2].startswith("p(d) = ")
        assert lines[-1].startswith("log p(d) = ")

    def test_seeds_change_the_trace(self, capsys):
        outs = set()
        for seed in range(6):
            _, out, _ = run(
                capsys,
                "sample",
                "--system",
                str(DATA / "g2.sys"),
                "--steps",
                "3",
                "--seed",
                str(seed),
            )
            outs.add(out)
        assert len(outs) > 1

    def test_missing_production_exits_2(self, capsys, tmp_path):
        system = tmp_path / "partial.sys"
        system.write_text("axiom: AB\nrule: A -> A p=1\n")
        code, _, err = run(
            capsys, "sample", "--system", str(system), "--steps", "1"
        )
        assert code == 2
        assert "error: MissingProduction" in err

    def test_word_length_guard_exits_3(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(solis.sampler, "MAX_WORD_LENGTH", 16)
        system = tmp_path / "growth.sys"
        system.write_text("axiom: A\nrule: A -> AA p=1\n")
        code, _, err = run(
            capsys, "sample", "--system", str(system), "--steps", "10"
        )
        assert code == 3
        assert "error: WordLengthExceeded" in err

    def test_recorded_output(self, capsys):
        code, out, _ = run(
            capsys, "sample", "--system", str(DATA / "long.sys"), "--steps", "5", "--seed", "3"
        )
        assert code == 0
        assert_recorded(out, "long", "sample")


class TestExtremeInput:
    """Inputs too large to answer exit 3 at once, before anything is listed
    or allocated."""

    @pytest.mark.parametrize("command", ["infer-derivation", "enumerate"])
    def test_derivation_space_past_the_cap_exits_3(self, capsys, command):
        """Words of 3 to 68 symbols; step 3 alone has 1,562,275 assignments."""
        start = time.perf_counter()
        code, _, err = run(capsys, command, str(DATA / "found-rng84.seq"))
        assert time.perf_counter() - start < 5.0
        assert code == 3
        assert "error: CapExceeded: derivation space holds at least" in err

    def test_lattice_past_the_edge_ceiling_exits_3(self, capsys, tmp_path):
        """Two random 1100-symbol words: 666,105,000 edges in the free lattice."""
        rng = np.random.default_rng(0)
        trace = tmp_path / "long-words.seq"
        trace.write_text("".join("".join(rng.choice(list("AB"), 1100)) + "\n" for _ in range(2)))
        start = time.perf_counter()
        code, _, err = run(capsys, "infer-system", str(trace))
        assert time.perf_counter() - start < 5.0
        assert code == 3
        assert "error: CapExceeded: step lattice would hold 666105000 edges" in err


class TestUsageAndErrors:
    def test_missing_input_file_exits_1(self, capsys, tmp_path):
        code, _, err = run(capsys, "free", str(tmp_path / "absent.seq"))
        assert code == 1
        assert "error:" in err

    def test_malformed_file_exits_1(self, capsys, tmp_path):
        trace = tmp_path / "trace.seq"
        trace.write_text("AA\nA BA\n")
        code, _, err = run(capsys, "free", str(trace))
        assert code == 1
        assert "error: FormatError" in err

    @pytest.mark.parametrize(
        "text", ["1e400", "1e-10000000", "1e-100000000", "nan", "inf", "-inf"]
    )
    def test_out_of_range_probability_exits_1(self, capsys, tmp_path, text):
        """Exponents past a double's range are format errors, and are read
        without building an integer with as many digits; a value that is
        not finite is refused at its line."""
        system = tmp_path / "g.sys"
        system.write_text(f"axiom: A\nrule: A -> AB p={text}\n")
        start = time.perf_counter()
        code, _, err = run(capsys, "prob", str(DATA / "aa-aba.seq"), "--system", str(system))
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert "error: FormatError" in err
        if not math.isfinite(float(text)):
            assert f"error: FormatError: {system}:2: bad probability {text!r}" in err

    @pytest.mark.parametrize("command", ["enumerate", "infer-derivation"])
    def test_max_derivations_is_a_usage_error(self, capsys, command):
        """The derivation cap is a constant, not an option."""
        code, out, err = run(capsys, command, str(DATA / "aa-aba.seq"), "--max-derivations", "3")
        assert code == 1
        assert out == ""
        assert "error: usage: unrecognized arguments: --max-derivations 3" in err

    def test_show_objective_is_a_usage_error(self, capsys):
        """infer-system prints no expanded objective: the library's
        build_objective(theta).monomials lists it, and enumerate's counts
        lines give it per derivation."""
        code, out, err = run(capsys, "infer-system", str(DATA / "aa-aba.seq"), "--show-objective")
        assert code == 1
        assert out == ""
        assert "error: usage: unrecognized arguments: --show-objective" in err

    def test_unknown_command_exits_1(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 1

    def test_missing_required_option_exits_1(self, capsys):
        code, _, _ = run(capsys, "prob", str(DATA / "example2.seq"))
        assert code == 1

    def test_no_command_exits_1(self, capsys):
        assert main([]) == 1
        capsys.readouterr()

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        assert "free" in out

    def test_token_mode_inputs(self, capsys, tmp_path):
        trace = tmp_path / "trace.seq"
        trace.write_text("Hot Hot\nHot Cold Hot\n")
        code, out, _ = run(capsys, "free", "--tokens", str(trace))
        assert code == 0
        assert "rule: Hot -> Cold Hot" in out


class TestTokenMode:
    """Recorded stdout of every command that writes words, rules or a
    system in token mode, on a trace of multi-character symbols ending in
    the empty word."""

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("free", ()),
            ("enumerate", ()),
            ("infer-derivation", ()),
            ("infer-system", ("--restarts", "2", "--seed", "0")),
        ],
    )
    def test_recorded_output(self, capsys, command, flags):
        code, out, _ = run(capsys, command, "--tokens", str(DATA / "tokens.seq"), *flags)
        assert code == 0
        assert_recorded(out, "tokens", command)

    def test_an_inferred_system_with_arrows_in_its_symbols_scores_its_value(
        self, capsys, tmp_path
    ):
        """A symbol that contains "->" is not read as the arrow: the system
        infer-system prints scores, read back, the log value it printed."""
        trace = tmp_path / "t.seq"
        trace.write_text("A->B\nC A->B\n")
        code, out, _ = run(capsys, "infer-system", "--tokens", str(trace), "--restarts", "2")
        assert code == 0
        assert "rule: A->B -> C A->B p=1" in out
        lines = out.splitlines()
        system = tmp_path / "t.sys"
        rules = [f"{line}\n" for line in lines if line.startswith(("axiom:", "rule:"))]
        system.write_text("".join(rules))
        inferred = next(line for line in lines if line.startswith("log value = "))
        code, out, _ = run(capsys, "prob", "--tokens", str(trace), "--system", str(system))
        assert code == 0
        assert f"log p(theta) = {inferred[len('log value = '):]}\n" in out

    def test_an_inferred_system_whose_words_spell_eps_reads_back_in_token_mode(
        self, capsys, tmp_path
    ):
        """Symbols that hold every character of <eps> print in token mode, so
        a successor that spells it reads back as those symbols, not as the
        empty word: the printed system reparses to itself and scores the
        values infer-system printed."""
        trace = DATA / "eps-letters.seq"
        code, out, _ = run(capsys, "infer-system", str(trace), "--restarts", "1")
        assert code == 0
        lines = out.splitlines()
        rules = "".join(f"{line}\n" for line in lines if line.startswith(("axiom:", "rule:")))
        path = tmp_path / "eps.sys"
        path.write_text(rules)
        system = parse_system_file(path, tokens=True)
        assert serialize_system(system) == rules
        value = sequence_probability(system, parse_sequence_file(trace))
        assert f"value = {format_real(value.linear)}" in lines
        assert f"log value = {format_real(value.log)}" in lines

    def test_recorded_sample(self, capsys):
        code, out, _ = run(
            capsys, "sample", "--tokens", "--system", str(DATA / "tokens.sys"),
            "--steps", "3", "--seed", "0",
        )
        assert code == 0
        assert_recorded(out, "tokens", "sample")

    def test_a_rejected_rule_is_named_as_written(self, capsys, tmp_path):
        system = tmp_path / "f.sys"
        system.write_text("axiom: Ab\nrule: Ab -> c Ab p=0\n")
        code, _, err = run(
            capsys, "sample", "--tokens", "--system", str(system), "--steps", "2"
        )
        assert code == 1
        assert "probability of Ab -> c Ab must be strictly positive, got 0.0" in err
