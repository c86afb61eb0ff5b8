"""File formats: parsing, canonical serialization, and error reporting."""

import hashlib
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import DATA
from solis import (
    Derivation,
    FormatError,
    Partial0LSystem,
    Production,
    S0LSystem,
    Sequence,
    StepAssignment,
    best_derivation,
    build_free_system,
    enumerate_derivations,
    file_digest,
    format_real,
    infer_optimal_system,
    parse_sequence_file,
    parse_system_file,
    parse_word,
    serialize_derivation,
    serialize_partial_system,
    serialize_system,
    serialize_word,
)
from solis.formats import _parse_probability

DIGITS = st.text("0123456789", min_size=1, max_size=30)
#: plain a/b in ASCII digits, big integers, and the syntax only Fraction reads
FRACTION_TEXTS = st.one_of(
    st.tuples(DIGITS, DIGITS).map("/".join),
    st.tuples(st.integers(0, 10**400), st.integers(0, 10**400)).map(lambda t: f"{t[0]}/{t[1]}"),
    st.tuples(
        st.sampled_from(["", "+", "-", " ", "\u0661"]),
        DIGITS,
        st.sampled_from(["", "_0", " "]),
        DIGITS,
    ).map(lambda t: f"{t[0]}{t[1]}{t[2]}/{t[3]}"),
)


class TestFormatReal:
    def test_twelve_significant_digits(self):
        assert format_real(2 / 9) == "0.222222222222"
        assert format_real(1 / 3) == "0.333333333333"

    def test_short_values_stay_short(self):
        assert format_real(0.5) == "0.5"
        assert format_real(1.0) == "1"
        assert format_real(0.25) == "0.25"

    def test_negative_infinity(self):
        assert format_real(float("-inf")) == "-inf"


class TestParseWord:
    def test_character_mode_splits_characters(self):
        assert parse_word("ABA") == ("A", "B", "A")

    def test_token_mode_splits_on_whitespace(self):
        assert parse_word("Pre A  Post", tokens=True) == ("Pre", "A", "Post")

    def test_epsilon_literal(self):
        assert parse_word("<eps>") == ()
        assert parse_word("<eps>", tokens=True) == ()

    def test_empty_text_rejected(self):
        with pytest.raises(FormatError, match="<eps>"):
            parse_word("")

    def test_whitespace_needs_token_mode(self):
        with pytest.raises(FormatError, match="token mode"):
            parse_word("A B")

    def test_epsilon_inside_token_word_rejected(self):
        with pytest.raises(FormatError, match="cannot appear"):
            parse_word("A <eps> B", tokens=True)

    def test_serialize_inverts_parse(self):
        for text in ("A", "ABA", "<eps>"):
            assert serialize_word(parse_word(text)) == text
        assert serialize_word(parse_word("Pre Post", tokens=True), tokens=True) == (
            "Pre Post"
        )


class TestSequenceFiles:
    def test_reads_fixture_with_comment(self):
        theta = parse_sequence_file(DATA / "example1.seq")
        assert theta == Sequence.from_strings("AAA", "ABABAC")

    def test_blank_lines_and_comments_ignored(self, tmp_path):
        path = tmp_path / "trace.seq"
        path.write_text("# header\n\nAA\n   \n# middle\nABA\n")
        assert parse_sequence_file(path) == Sequence.from_strings("AA", "ABA")

    def test_epsilon_word_line(self, tmp_path):
        path = tmp_path / "trace.seq"
        path.write_text("A\n<eps>\n")
        assert parse_sequence_file(path).words == (("A",), ())

    def test_token_mode_file(self, tmp_path):
        path = tmp_path / "trace.seq"
        path.write_text("Start Start\nStart Mid Start\n")
        theta = parse_sequence_file(path, tokens=True)
        assert theta.words == (("Start", "Start"), ("Start", "Mid", "Start"))

    def test_too_few_words_rejected(self, tmp_path):
        path = tmp_path / "trace.seq"
        path.write_text("AA\n")
        with pytest.raises(FormatError, match="two words"):
            parse_sequence_file(path)

    def test_error_carries_file_and_line(self, tmp_path):
        path = tmp_path / "trace.seq"
        path.write_text("AA\nA BA\n")
        with pytest.raises(FormatError) as info:
            parse_sequence_file(path)
        assert str(path) in str(info.value)
        assert ":2:" in str(info.value)

    @pytest.mark.parametrize(
        ("text", "tokens"), [("AA\nABA\n", False), ("Start Start\nStart Mid\n", True)]
    )
    def test_byte_order_mark_is_no_symbol(self, tmp_path, text, tokens):
        """A UTF-8 byte-order mark opening the file is skipped; one after
        the first character is read as the symbol U+FEFF."""
        plain, marked = tmp_path / "plain.seq", tmp_path / "marked.seq"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        assert parse_sequence_file(marked, tokens) == parse_sequence_file(plain, tokens)
        marked.write_text("A\ufeff\nA\n", encoding="utf-8")
        assert parse_sequence_file(marked).words[0] == ("A", "\ufeff")


class TestSystemFiles:
    def test_reads_fixture_with_fractions(self):
        g = parse_system_file(DATA / "g2.sys")
        assert g.base.axiom == ("A", "A")
        assert len(g.prob) == 5
        assert g.prob[Production("A", ("A", "B"))] == float(Fraction(1, 3))
        assert g.prob[Production("B", ("B",))] == 1.0

    def test_probability_notations(self, tmp_path):
        path = tmp_path / "sys.sys"
        path.write_text(
            "axiom: A\n"
            "rule: A -> A p=2/9\n"
            "rule: A -> AA p=5e-1\n"
            "rule: A -> <eps> p=0.277777777778\n"
        )
        g = parse_system_file(path)
        assert g.prob[Production("A", ("A",))] == float(Fraction(2, 9))
        assert g.prob[Production("A", ("A", "A"))] == 0.5

    def test_default_marker_round_trips(self, tmp_path):
        path = tmp_path / "sys.sys"
        path.write_text("axiom: A\nrule: A -> A p=1\nrule: B -> B p=1 # default\n")
        g = parse_system_file(path)
        assert g.defaults == frozenset({Production("B", ("B",))})
        assert "rule: B -> B p=1 # default" in serialize_system(g)

    def test_duplicate_rule_rejected(self, tmp_path):
        path = tmp_path / "sys.sys"
        path.write_text("axiom: A\nrule: A -> A p=0.5\nrule: A -> A p=0.5\n")
        with pytest.raises(FormatError, match="duplicate"):
            parse_system_file(path)

    @pytest.mark.parametrize(
        "tokens, axiom, rule", [(False, "A", "A -> AB"), (True, "Ab", "Ab -> c Ab")]
    )
    def test_duplicate_rule_is_named_as_written(self, tmp_path, tokens, axiom, rule):
        """In token mode the successor's tokens stay apart: Ab -> cAb would
        be another rule, whose successor is the one token cAb."""
        path = tmp_path / "sys.sys"
        path.write_text(f"axiom: {axiom}\nrule: {rule} p=1/2\nrule: {rule} p=1/2\n")
        with pytest.raises(FormatError) as info:
            parse_system_file(path, tokens=tokens)
        assert str(info.value) == f"{path}:3: duplicate rule {rule}"

    def test_duplicate_axiom_rejected(self, tmp_path):
        path = tmp_path / "sys.sys"
        path.write_text("axiom: A\naxiom: B\nrule: A -> A p=1\n")
        with pytest.raises(FormatError, match="axiom"):
            parse_system_file(path)

    def test_missing_axiom_rejected(self, tmp_path):
        path = tmp_path / "sys.sys"
        path.write_text("rule: A -> A p=1\n")
        with pytest.raises(FormatError, match="missing axiom"):
            parse_system_file(path)

    def test_unrecognized_line_rejected(self, tmp_path):
        path = tmp_path / "sys.sys"
        path.write_text("axiom: A\nproduction: A -> A p=1\n")
        with pytest.raises(FormatError, match="unrecognized"):
            parse_system_file(path)

    def test_bad_probability_rejected(self, tmp_path):
        path = tmp_path / "sys.sys"
        path.write_text("axiom: A\nrule: A -> A p=high\n")
        with pytest.raises(FormatError, match="bad probability"):
            parse_system_file(path)

    def test_rule_without_probability_rejected(self, tmp_path):
        path = tmp_path / "sys.sys"
        path.write_text("axiom: A\nrule: A -> A\n")
        with pytest.raises(FormatError, match="p=<probability>"):
            parse_system_file(path)

    def test_multi_character_predecessor_needs_token_mode(self, tmp_path):
        path = tmp_path / "sys.sys"
        path.write_text("axiom: A\nrule: AB -> A p=1\n")
        with pytest.raises(FormatError, match="token mode"):
            parse_system_file(path)

    @pytest.mark.parametrize("tokens", [False, True])
    def test_eps_is_no_predecessor(self, tmp_path, tokens):
        path = tmp_path / "sys.sys"
        path.write_text("axiom: A\nrule: <eps> -> A p=1\n")
        with pytest.raises(FormatError, match="sys.sys:2: <eps> cannot be a predecessor"):
            parse_system_file(path, tokens=tokens)

    def test_blank_and_comment_lines_between_rules_skipped(self, tmp_path):
        path = tmp_path / "sys.sys"
        path.write_text("axiom: A\nrule: A -> A p=1/2\n\n# note\n   \nrule: A -> AA p=1/2\n")
        g = parse_system_file(path)
        assert g.prob == {Production("A", ("A",)): 0.5, Production("A", ("A", "A")): 0.5}

    def test_rule_without_arrow_rejected(self, tmp_path):
        path = tmp_path / "sys.sys"
        path.write_text("axiom: A\nrule: A B p=1\n")
        with pytest.raises(FormatError, match="sys.sys:2: rule line must contain '->'"):
            parse_system_file(path)

    def test_predecessor_with_space_rejected(self, tmp_path):
        path = tmp_path / "sys.sys"
        path.write_text("axiom: A\nrule: A B -> A p=1\n")
        with pytest.raises(FormatError, match="sys.sys:2: bad predecessor 'A B'"):
            parse_system_file(path)

    @pytest.mark.parametrize(
        ("text", "tokens"),
        [
            ("axiom: AA\nrule: A -> AB p=1\n", False),
            ("axiom: Start\nrule: Start -> Start Mid p=1\n", True),
        ],
    )
    def test_byte_order_mark_is_skipped(self, tmp_path, text, tokens):
        plain, marked = tmp_path / "plain.sys", tmp_path / "marked.sys"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert parse_system_file(marked, tokens) == parse_system_file(plain, tokens)

    def test_simplex_violation_reported_as_format_error(self, tmp_path):
        path = tmp_path / "sys.sys"
        path.write_text("axiom: A\nrule: A -> A p=0.7\nrule: A -> AA p=0.7\n")
        with pytest.raises(FormatError, match="sum"):
            parse_system_file(path)


@settings(max_examples=300, deadline=None)
@given(FRACTION_TEXTS)
@example("1/0")
@example("0/0")
@example(f"{10**400}/1")
@example("1" * 4301 + "/1")
@example("1/" + "1" * 4301)
@example("/2")
@example("1/2/3")
@example("\u0661/\u0662")
def test_fractions_parse_as_fraction_does(text):
    """p=a/b gives float(Fraction(text)), and fails exactly where it fails:
    a zero denominator, a quotient past the float range, or an integer of
    more digits than int() converts."""
    try:
        expected = float(Fraction(text))
    except (ValueError, ZeroDivisionError, OverflowError):
        with pytest.raises(FormatError, match="bad probability"):
            _parse_probability(text, "<test>", 1)
    else:
        assert _parse_probability(text, "<test>", 1) == expected


class TestSerialization:
    def test_system_serialization_is_idempotent(self, tmp_path):
        original = parse_system_file(DATA / "g1.sys")
        text = serialize_system(original)
        path = tmp_path / "copy.sys"
        path.write_text(text)
        assert serialize_system(parse_system_file(path)) == text

    def test_canonical_rule_order(self):
        g = parse_system_file(DATA / "g2.sys")
        lines = serialize_system(g).splitlines()
        assert lines[0] == "axiom: AA"
        assert lines[1:] == [
            "rule: A -> A p=0.333333333333",
            "rule: A -> AB p=0.333333333333",
            "rule: A -> BA p=0.333333333333",
            "rule: B -> B p=1",
            "rule: C -> C p=1",
        ]

    def test_inferred_system_round_trips(self, tmp_path, theta2):
        system, _ = infer_optimal_system(theta2)
        text = serialize_system(system)
        path = tmp_path / "inferred.sys"
        path.write_text(text)
        reparsed = parse_system_file(path)
        assert serialize_system(reparsed) == text
        assert reparsed.defaults == system.defaults

    def test_partial_system_text(self, theta2):
        free = build_free_system(theta2)
        assert serialize_partial_system(free) == (
            "alphabet: A B\n"
            "axiom: AA\n"
            "rule: A -> <eps>\n"
            "rule: A -> A\n"
            "rule: A -> AB\n"
            "rule: A -> ABA\n"
            "rule: A -> BA\n"
        )

    def test_token_mode_system_round_trips(self, tmp_path):
        path = tmp_path / "sys.sys"
        path.write_text(
            "axiom: Hi Hi\nrule: Hi -> Hi Lo p=0.5\nrule: Hi -> <eps> p=0.5\n"
            "rule: Lo -> Lo p=1\n"
        )
        g = parse_system_file(path, tokens=True)
        text = serialize_system(g)
        assert "rule: Hi -> Hi Lo p=0.5" in text
        copy = tmp_path / "copy.sys"
        copy.write_text(text)
        assert serialize_system(parse_system_file(copy, tokens=True)) == text

    def test_token_mode_symbols_that_hold_the_arrow_round_trip(self, tmp_path):
        """In token mode the arrow is a token of its own, so symbols that
        are "->", contain it, end in it or look like a probability read back
        as themselves, as predecessors and inside successors."""
        symbols = ("->", "A->B", "x->", "p=1")
        prob = {}
        for a, b in zip(symbols, symbols[1:] + symbols[:1]):
            prob[Production(a, (b, "->", a))] = 0.25
            prob[Production(a, ())] = 0.75
        base = Partial0LSystem(frozenset(symbols), ("A->B", "->"), tuple(prob))
        g = S0LSystem(base=base, prob=prob)
        path = tmp_path / "sys.sys"
        path.write_text(serialize_system(g))
        assert parse_system_file(path, tokens=True) == g

    def test_derivation_text(self, theta2):
        derivation, _, _ = best_derivation(theta2)
        assert serialize_derivation(derivation) == "step 1: <eps> | ABA\n"

    def test_empty_step_text(self):
        """A step of the empty word has no parts, and prints as <eps> like
        every other empty word."""
        step = StepAssignment((), (), ())
        assert serialize_derivation(Derivation(steps=(step, step))) == (
            "step 1: <eps>\nstep 2: <eps>\n"
        )

    def test_multi_step_derivation_text(self):
        theta = Sequence.from_strings("A", "AA", "AAAA")
        free = build_free_system(theta)
        last = list(enumerate_derivations(free, theta))[-1]
        lines = serialize_derivation(last).splitlines()
        assert lines[0] == "step 1: AA"
        assert lines[1].startswith("step 2: ")
        assert " | " in lines[1]


class TestDigest:
    def test_digest_matches_hashlib(self, tmp_path, monkeypatch):
        """On an empty, a one-byte and a 3 MiB file, both from the
        interpreter's own sha256, which needs no hashlib, and from the
        hashlib fallback, taken when neither of its names (_sha256 up to
        Python 3.11, _sha2 from 3.12) imports."""
        for size in (0, 1, 3 << 20):
            data = random.Random(size).randbytes(size)
            path = tmp_path / f"blob{size}"
            path.write_bytes(data)
            for blocked in (["hashlib"], ["_sha256", "_sha2"]):
                with monkeypatch.context() as patch:
                    for name in blocked:
                        patch.setitem(sys.modules, name, None)
                    assert file_digest(path) == hashlib.sha256(data).hexdigest()
