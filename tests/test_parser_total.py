"""The parser is total: numeric edge cases give diagnostics, never exceptions.

Non-finite numbers (a literal past the float range, such as ``1e400``) are
errors at the number's word, and so are digit strings longer than ``int``
converts.  A grammar-shaped property test checks that ``parse`` never raises
and that every error column is 1 or the start of a word on its line.
Another checks that every spelling of a statement, the canonical one that
each handler reads inline and the variants that take the general path,
parses to the circuit the constructors build.
"""

import math
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flyqsim.gates import (MACROS, CompositeGate, CoulombCoupler,
                           PhaseShifter, WaveguideCoupler)
from flyqsim.netlist import _NUMBER_RE, Circuit, Segment, _LineParser, parse


def diagnostics_of(text):
    return [(d.line, d.column, d.message) for d in parse(text).diagnostics]


@pytest.mark.parametrize("text,expected", [
    ("rails ²\n",
     [(1, 7, "rail count must be a positive integer, got '²'"),
      (1, 1, "no rails declared")]),
    ("rails 2\nbs q0 q1 lc=1e400um lt=0.28um\n", [(2, 10, "lc must be finite")]),
    ("rails 2\nbs q0 q1 lc=0.1um lt=1e400um\n", [(2, 19, "lt must be finite")]),
    ("rails 2\nbs q0 q1 lc=0.1um lt=0.28um len=1e400um\n",
     [(2, 29, "len must be finite")]),
    ("rails 1\nps q0 phi=1rad len=1e400um\n", [(2, 16, "len must be finite")]),
    ("rails 1\nps q0 phi=1rad len=-1e400um\n", [(2, 16, "len must be finite")]),
    ("rails 2\ncc q0 q1 chit=1rad len=1e400um\n", [(2, 20, "len must be finite")]),
    ("rails 2\nsegment q1 1e400um\n", [(2, 12, "segment length must be finite")]),
    ("rails 2\nsegment q1 -1e400um\n", [(2, 12, "segment length must be finite")]),
    ("rails 2\nsep q0 delay=1e400ps\n", [(2, 8, "delay must be finite")]),
    # the number is reported even when the rail before it is wrong
    ("rails 1\nps q9 phi=1e400rad\n",
     [(2, 4, "rail q9 out of range (rails 1)"), (2, 7, "phi must be finite")]),
    # an element line's order: len=, each bad rail, equal rails (only when
    # every rail is valid), each keyed number, then the first range rule
    ("rails 3\nbs q0 q0 lc=aum lt=0.28um\n",
     [(2, 7, "coupler rails must be distinct"), (2, 10, "invalid number 'a' in lc")]),
    ("rails 3\ncc q1 q1 chit=xrad\n",
     [(2, 7, "coupler rails must be distinct"), (2, 10, "invalid number 'x' in chit")]),
    ("rails 3\nps q9 phi=xrad len=-1um\n",
     [(2, 16, "len must be >= 0"), (2, 4, "rail q9 out of range (rails 3)"),
      (2, 7, "invalid number 'x' in phi")]),
    ("rails 3\nfredkin q9 q8 q0\n",
     [(2, 9, "rail q9 out of range (rails 3)"), (2, 12, "rail q8 out of range (rails 3)")]),
], ids=["rails superscript", "lc", "lt", "bs len", "ps len", "negative len",
        "cc len", "segment", "negative segment", "delay", "phi after bad rail",
        "bs equal rails before lc", "cc equal rails before chit",
        "ps len before rail before phi", "fredkin bad rails"])
def test_numeric_edge_cases_are_diagnostics(text, expected):
    assert diagnostics_of(text) == expected
    assert not parse(text).ok


def test_digit_strings_past_the_int_limit():
    nines = "9" * 5000
    assert diagnostics_of(f"rails {nines}\n") == [
        (1, 7, f"rail count {nines} exceeds the capacity of 63"),
        (1, 1, "no rails declared")]
    assert diagnostics_of(f"rails 2\nset q{nines}\n") == [
        (2, 5, f"rail q{nines} out of range (rails 2)")]


def test_unicode_decimal_digits_are_numbers():
    # \d and str.isdecimal accept every Unicode decimal digit, and so does int
    result = parse("rails ٣\nset q٢\nps q１ phi=١.5rad\n")
    assert result.ok
    assert result.circuit.n_rails == 3
    assert result.circuit.detectors == (2,)
    assert result.circuit.elements[0].rail == 1
    assert result.circuit.elements[0].phi == 1.5


# --- grammar-shaped property test ---------------------------------------------

DIGITS = st.text(alphabet="0123456789٣١２²", min_size=1, max_size=5)
NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10 ** 30, 10 ** 30).map(str),
    st.builds(lambda a, b, e: f"{a}.{b}e{e}", DIGITS, DIGITS, DIGITS),
    st.sampled_from(["1e400", "-1e400", "1e-400", "inf", "nan", "1_0", "", ".",
                     "-", "+.5", "5.", "1e", "0x10", "٣.٥", "9" * 400]),
)
RAILS = st.one_of(
    st.integers(-2, 30).map(lambda i: f"q{i}"),
    st.builds(lambda d: f"q{d}", DIGITS),
    st.sampled_from(["q", "Q1", "qq1", "q-1", "x", "q" + "9" * 5000]),
)
UNITS = st.sampled_from(["um", "UM", "ps", "rad", "RAD", "", "u", "m"])
KEYS = st.sampled_from(["phi", "lc", "lt", "chit", "delay", "len", "LEN", "x", ""])
WORDS = st.one_of(
    RAILS,
    st.builds(lambda k, n, u: f"{k}={n}{u}", KEYS, NUMBERS, UNITS),
    st.builds(lambda n, u: n + u, NUMBERS, UNITS),
    st.sampled_from(["empty", "EMPTY", "full", "a", "r_1", "1a", "#", "#x", "=1um"]),
)
KEYWORDS = st.sampled_from(["rails", "segment", "sep", "ps", "bs", "cc", "hadamard",
                            "fredkin", "dualrail", "set", "SET", "bogus"])
SEPARATORS = st.sampled_from([" ", "  ", "\t", "\x1f", "\u00a0", "\u3000", "\u2003"])
STATEMENTS = st.builds(
    lambda keyword, words, seps, lead: lead + keyword + "".join(
        sep + word for sep, word in zip(seps, words)),
    KEYWORDS, st.lists(WORDS, max_size=6), st.lists(SEPARATORS, min_size=6, max_size=6),
    st.sampled_from(["", " ", "\t", "\u3000"]))
HEADERS = st.one_of(st.just("rails 8"), st.just(""),
                    st.builds(lambda d: f"rails {d}", st.one_of(DIGITS, NUMBERS)))


@settings(max_examples=400, deadline=None)
@given(HEADERS, st.lists(STATEMENTS, max_size=12),
       st.sampled_from(["\n", "\r\n", "\r", "\x0b"]))
def test_parse_is_total_and_columns_point_at_words(header, statements, newline):
    text = newline.join([header] + statements)
    result = parse(text)
    lines = text.splitlines()
    for diag in result.diagnostics:
        line = lines[diag.line - 1] if lines else ""
        starts = {m.start() + 1 for m in re.finditer(r"\S+", line)}
        assert diag.column == 1 or diag.column in starts, (diag, line)
    if result.ok:
        assert not result.errors()


NUMBER_ALPHABET = "0123456789.eE+-_ infatyINFATY٣١２²x#"


@settings(max_examples=2000, deadline=None)
@given(st.one_of(st.text(alphabet=NUMBER_ALPHABET, min_size=1, max_size=8), NUMBERS))
def test_number_reads_exactly_the_grammar_literals(text):
    # _number skips the pattern for words float() reads as finite without "_"
    assume(text.split() == [text])  # words never hold whitespace
    parser = _LineParser()
    parser._line = f"x {text}"
    value = parser._number(text, 1, "phi")
    if _NUMBER_RE.fullmatch(text) and math.isfinite(float(text)):
        assert value == float(text)
        assert parser.diagnostics == []
    else:
        assert value is None
        (diag,) = parser.diagnostics
        expected = ("phi must be finite" if _NUMBER_RE.fullmatch(text)
                    else f"invalid number '{text}' in phi")
        assert (diag.column, diag.message) == (3, expected)


# --- the canonical read agrees with the general one ---------------------------
#
# Each handler reads its canonical spelling inline and falls back to the
# general word helpers otherwise.  Every spelling of one statement must parse
# to the circuit its constructors build, or be refused, alike.

N_RAILS = 6
VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, 1e-05, 0.28, 1.0, 3.0, 1e16,
                     1.7976931348623157e+308, -1.5]))
LENGTHS = st.one_of(st.none(), VALUES)
RAIL_INDICES = st.integers(0, N_RAILS)  # N_RAILS itself is out of range


@st.composite
def statements(draw):
    """``(canonical words, expected circuit or None)`` of one statement."""
    kind = draw(st.sampled_from(["ps", "bs", "cc", "segment", "hadamard",
                                 "fredkin"]))
    if kind in MACROS:
        rails = draw(st.lists(RAIL_INDICES, min_size=len(MACROS[kind][0]),
                              max_size=len(MACROS[kind][0])))
        words = [kind, *[f"q{r}" for r in rails]]
        build = lambda: Circuit(N_RAILS, [CompositeGate(kind, rails)])
    elif kind == "segment":
        rail, length = draw(RAIL_INDICES), draw(VALUES)
        words = [kind, f"q{rail}", f"{length!r}um"]
        build = lambda: Circuit(N_RAILS, segments=[Segment(rail, length, 0)])
    else:
        n_rails = 1 if kind == "ps" else 2
        rails = draw(st.lists(RAIL_INDICES, min_size=n_rails, max_size=n_rails))
        values = draw(st.lists(VALUES, min_size=1 + (kind == "bs"),
                               max_size=1 + (kind == "bs")))
        length = draw(LENGTHS)
        keys = {"ps": [("phi", "rad")], "cc": [("chit", "rad")],
                "bs": [("lc", "um"), ("lt", "um")]}[kind]
        words = [kind, *[f"q{r}" for r in rails],
                 *[f"{key}={value!r}{unit}" for (key, unit), value
                   in zip(keys, values)]]
        if length is not None:
            words.append(f"len={length!r}um")
        element = {"ps": lambda: PhaseShifter(rails[0], *values, length),
                   "bs": lambda: WaveguideCoupler(rails, *values, length),
                   "cc": lambda: CoulombCoupler(rails, *values, length)}[kind]
        build = lambda: Circuit(N_RAILS, [element()])
    try:
        expected = build()
    except ValueError:
        expected = None
    return words, expected


def _upper_keys(words):
    return [w[:w.index("=")].upper() + w[w.index("="):] if "=" in w else w
            for w in words]


def _upper_units(words):
    return [w[:-3] + w[-3:].upper() if w.endswith(("um", "rad")) else w
            for w in words]


def _padded_rails(words):
    return [f"q0{w[1:]}" if re.fullmatch(r"q\d+", w) else w for w in words]


SPELLINGS = {
    "canonical": lambda words: " ".join(words),
    "upper keys": lambda words: " ".join(_upper_keys(words)),
    "upper units": lambda words: " ".join(_upper_units(words)),
    "q01 rails": lambda words: " ".join(_padded_rails(words)),
    "tabs": lambda words: "\t".join(words) + "\t",
    "comment": lambda words: " ".join(words) + "  # a note",
    "all": lambda words: "\t".join(
        _padded_rails(_upper_units(_upper_keys(words)))) + " #",
}


@settings(max_examples=400, deadline=None)
@given(statements())
def test_every_spelling_parses_to_the_constructed_circuit(statement):
    words, expected = statement
    for name, spell in SPELLINGS.items():
        result = parse(f"rails {N_RAILS}\n{spell(words)}\n")
        assert result.circuit == expected, (name, spell(words),
                                            result.diagnostics)
        assert result.ok == (expected is not None), name


@pytest.mark.parametrize("phi", ["0.0", "-0.5", "3.2", "1e16", "-0.0"])
def test_a_phase_the_dots_cannot_reach_parses_on_both_paths(phi):
    # the canonical inline read and the general path keep the phase as
    # written; hardware_realizable is the one place that judges it
    for line in (f"ps q0 phi={phi}rad", f"ps q0 PHI={phi}RAD len=1.0um"):
        result = parse(f"rails 1\n{line}\n")
        assert result.diagnostics == []
        element = result.circuit.elements[0]
        assert repr(element.phi) == repr(float(phi))
        assert not element.hardware_realizable
