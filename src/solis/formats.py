"""Text formats: sequence files, system files, and canonical rendering.

Sequence files hold one word per line, in order.  System files hold an
`axiom:` line followed by `rule:` lines in canonical production order.
Default tokenization treats every character as one symbol; token mode
splits on whitespace so multi-character symbols work.  Blank lines and
lines starting with `#` are ignored in both formats.  The literal `<eps>`
stands for the empty word, keeping rule lines unambiguous.

All numbers render with 12 significant digits; parsing accepts decimals,
scientific notation, and exact fractions like `2/9`.
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING, Iterable, Iterator

from .errors import FormatError
from .model import Partial0LSystem, Production, S0LSystem, Sequence, Symbol, Word

if TYPE_CHECKING:
    from .derivations import Derivation

EPSILON_TOKEN = "<eps>"
DEFAULT_MARKER = "# default"


def format_real(value: float) -> str:
    """12 significant digits, the package-wide numeric output format."""
    return f"{value:.12g}"


def parse_word(
    text: str, tokens: bool = False, *, source: str = "<string>", line: int | None = None
) -> Word:
    if text == EPSILON_TOKEN:
        return ()
    if not text:
        raise FormatError(f"empty word must be written as {EPSILON_TOKEN}", source, line)
    if tokens:
        parts = tuple(text.split())
        if EPSILON_TOKEN in parts:
            raise FormatError(f"{EPSILON_TOKEN} cannot appear inside a word", source, line)
        return parts
    if any(c.isspace() for c in text):
        raise FormatError(
            "whitespace inside a word; use token mode for multi-character symbols",
            source,
            line,
        )
    return tuple(text)


def serialize_word(word: Word, tokens: bool = False) -> str:
    if not word:
        return EPSILON_TOKEN
    return " ".join(word) if tokens else "".join(word)


def needs_tokens(symbols: Iterable[Symbol]) -> bool:
    """Whether words of these symbols must be written space-joined, to be
    read back in token mode: some symbol has more than one character."""
    return any(len(symbol) != 1 for symbol in symbols)


def production_text(production: Production, tokens: bool) -> str:
    """A rule as written everywhere: `a -> successor`."""
    return f"{production.predecessor} -> {serialize_word(production.successor, tokens)}"


def parse_sequence_file(path: str, tokens: bool = False) -> Sequence:
    """Read a sequence of words, one per line, first line the axiom."""
    source = str(path)
    words = [parse_word(text, tokens, source=source, line=number) for number, text in _lines(path)]
    if len(words) < 2:
        raise FormatError("a sequence file needs at least two words", source)
    return Sequence(words=tuple(words))


def parse_system_file(path: str, tokens: bool = False) -> S0LSystem:
    """Read an `axiom:` line plus `rule: a -> y p=<prob>` lines."""
    source = str(path)
    axiom: Word | None = None
    prob: dict[Production, float] = {}
    defaults: set[Production] = set()
    for number, text in _lines(path):
        if text.startswith("axiom:"):
            if axiom is not None:
                raise FormatError("more than one axiom line", source, number)
            axiom = parse_word(text[len("axiom:") :].strip(), tokens, source=source, line=number)
            continue
        if text.startswith("rule:"):
            production, value, is_default = _parse_rule(
                text[len("rule:") :], tokens, source, number
            )
            if production in prob:
                rule = production_text(production, tokens)
                raise FormatError(f"duplicate rule {rule}", source, number)
            prob[production] = value
            if is_default:
                defaults.add(production)
            continue
        raise FormatError(f"unrecognized line {text!r}", source, number)
    if axiom is None:
        raise FormatError("missing axiom line", source)
    alphabet = set(axiom) | {p.predecessor for p in prob}
    for production in prob:
        alphabet.update(production.successor)
    base = Partial0LSystem(
        alphabet=frozenset(alphabet), axiom=axiom, productions=tuple(prob)
    )
    try:
        return S0LSystem(base=base, prob=prob, defaults=frozenset(defaults))
    except ValueError as exc:
        raise FormatError(str(exc), source) from exc


def serialize_system(g: S0LSystem) -> str:
    """Canonical text for a stochastic system; reparses to the same text.

    Words are space-joined exactly when some alphabet symbol has more than
    one character, in which case the file must be parsed in token mode.
    """
    tokens = needs_tokens(g.base.alphabet)
    lines = [f"axiom: {serialize_word(g.base.axiom, tokens)}"]
    for production in g.base.productions:
        line = f"rule: {production_text(production, tokens)} p={format_real(g.prob[production])}"
        if production in g.defaults:
            line += f" {DEFAULT_MARKER}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def serialize_partial_system(system: Partial0LSystem) -> str:
    """Text form of a probability-free system (the free system, typically)."""
    tokens = needs_tokens(system.alphabet)
    lines = [
        " ".join(["alphabet:", *sorted(system.alphabet)]),
        f"axiom: {serialize_word(system.axiom, tokens)}",
    ]
    lines += (f"rule: {production_text(p, tokens)}" for p in system.productions)
    return "\n".join(lines) + "\n"


def serialize_derivation(d: Derivation) -> str:
    """One line per step; parts separated by ' | ' in position order, <eps> if none."""
    tokens = needs_tokens(symbol for step in d.steps for symbol in step.source + step.target)
    lines = []
    for number, step in enumerate(d.steps, start=1):
        parts = " | ".join(serialize_word(part, tokens) for part in step.parts) or EPSILON_TOKEN
        lines.append(f"step {number}: {parts}")
    return "\n".join(lines) + "\n"


def file_digest(path: str) -> str:
    """The sha256 hex digest of the file's bytes, from the interpreter's own
    sha256 module (_sha256 up to Python 3.11, _sha2 from 3.12): importing
    hashlib loads OpenSSL, which costs a command more than the hashing.
    hashlib serves an interpreter built without that module."""
    try:
        if sys.version_info >= (3, 12):
            from _sha2 import sha256
        else:
            from _sha256 import sha256
    except ImportError:
        from hashlib import sha256
    with open(path, "rb") as handle:
        return sha256(handle.read()).hexdigest()


def _lines(path: str) -> Iterator[tuple[int, str]]:
    """The stripped lines of a text file that are neither blank nor
    comments, with their 1-based numbers; a leading byte-order mark is
    skipped."""
    with open(path, encoding="utf-8-sig") as handle:
        for number, raw in enumerate(handle, start=1):
            text = raw.strip()
            if text and not text.startswith("#"):
                yield number, text


def _parse_rule(
    text: str, tokens: bool, source: str, line: int
) -> tuple[Production, float, bool]:
    work = text.strip()
    is_default = False
    if work.endswith(DEFAULT_MARKER):
        is_default = True
        work = work[: -len(DEFAULT_MARKER)].rstrip()
    head, sep, prob_text = work.rpartition(" p=")
    if not sep:
        raise FormatError("rule line must end with ' p=<probability>'", source, line)
    if tokens:
        # the arrow is a token of its own, as serialize_system writes it, so
        # that a symbol may contain "->" or be it
        pred_text, arrow, succ_text = (" ".join(head.split()) + " ").partition(" -> ")
    else:
        pred_text, arrow, succ_text = head.partition("->")
    if not arrow:
        raise FormatError("rule line must contain '->'", source, line)
    predecessor = pred_text.strip()
    if not predecessor or any(c.isspace() for c in predecessor):
        raise FormatError(f"bad predecessor {predecessor!r}", source, line)
    if predecessor == EPSILON_TOKEN:
        raise FormatError(f"{EPSILON_TOKEN} cannot be a predecessor", source, line)
    if not tokens and len(predecessor) != 1:
        raise FormatError(
            f"multi-character predecessor {predecessor!r}; use token mode",
            source,
            line,
        )
    successor = parse_word(succ_text.strip(), tokens, source=source, line=line)
    return Production(predecessor, successor), _parse_probability(
        prob_text.strip(), source, line
    ), is_default


def _parse_probability(text: str, source: str, line: int) -> float:
    """An exact fraction a/b, or a decimal; float rounds decimals as
    Fraction would, without building the huge integers that an exponent
    like 1e-100000000 takes as a Fraction.  For ASCII digits a and b,
    int(a) / int(b) is the correctly rounded quotient, the float that
    Fraction gives, and raises as it does; fractions is imported only for
    other fraction syntax (signs, spaces, underscores), so a system file of
    decimals and plain fractions does not load it."""
    try:
        if "/" in text:
            numerator, _, denominator = text.partition("/")
            digits = numerator + denominator
            if digits.isascii() and numerator.isdigit() and denominator.isdigit():
                return int(numerator) / int(denominator)
            from fractions import Fraction

            return float(Fraction(text))
        return float(text)
    except (ValueError, ZeroDivisionError, OverflowError):
        raise FormatError(f"bad probability {text!r}", source, line) from None
