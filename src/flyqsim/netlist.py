"""Circuit intermediate representation and the line-oriented netlist format.

One statement per line; ``#`` starts a comment; keywords are
case-insensitive, rail identifiers (``q0``, ``q1``, ...) are case-sensitive.
Numeric fields carry mandatory unit suffixes (``um``, ``ps``, ``rad``), so a
bare number is a parse error rather than a silent unit bug.

Grammar::

    rails <n>
    segment <rail> <length>um            # wire before the next element on that rail
    sep <rail> delay=<t>ps [empty]       # 'empty' loads no electron
    ps <rail> phi=<x>rad [len=<x>um]
    bs <railA> <railB> lc=<x>um lt=<x>um [len=<x>um]
    cc <railA> <railB> chit=<x>rad [len=<x>um]
    hadamard <rail0> <rail1>             # macro
    fredkin <control> <t0> <t1>          # macro
    dualrail <name> <rail0> <rail1>
    set <rail>

The optional ``len=`` attribute records an explicit element footprint in um
(``footprint`` in ``gates``, used by the path-length budget).

Parsing is total: malformed input produces diagnostics with 1-based line and
column positions, never an exception.  Each line is split into words with
``str.split``; a word's column is computed only when a diagnostic is written
about it.  A number must be finite: a literal past the float range, such as
``1e400``, is an error at its word, as is a malformed one.

The front end compiles each circuit once, into columns, and every stage
reads them.  The parser fills the columns of ``gates.ElementColumns`` and
three wire columns (rail, length, position) directly: it builds no element
and no ``Segment``.  The line loop reads the canonical spelling of the
``segment``, ``ps``, ``bs``, ``cc`` and macro lines, the one ``serialize``
writes, inline: a rail is a lookup in the ``q<i>`` table, and a number is
the word with its fixed ``key=`` and unit sliced off, read by one ``float``
call on a word without ``_``.  Any other spelling (``PHI=``, ``1UM``,
``q01``) goes to the statement handlers, dispatched through one keyword
table, and their general word helpers, which check every value and write
the diagnostics.  One handler reads every element statement, the
primitives and the macros, from one table (``_ELEMENTS``): each keyword's
kind code, usage and keyed numbers, with their units and range rules.  One
array check over the columns (``_refused``) is the circuit's single
validation point: when it refuses a row that the inline read took (equal
rails, a number that is not finite, a length out of range), the text is
read again by the general path alone, so every diagnostic keeps its text,
its column and its order.  A hand-built ``Circuit`` compiles its elements
and segments to the same columns in its constructor, under the same check.

``Circuit.elements``, ``segments`` and ``wire`` are built from the columns
only when read, for a hand-built circuit too: a circuit keeps no element
or ``Segment`` object it was given.  ``Circuit.expanded`` is the primitive
form every stage reads: the circuit itself without a macro, else its
expansion, derived from the columns on first use, for a parsed circuit and
a hand-built one alike.  There is one parsing mode:
a ``ps`` holds any finite phase, and whether the dots reach it is
``PhaseShifter.hardware_realizable``, read per element over
``Circuit.expanded``, which holds the macros' phases too.  A rail outside
the register is a diagnostic here and a ``ValueError`` from ``Circuit``;
elements handed to ``gates.apply_stretch`` directly meet its compile's
rail check, which raises before the amplitudes change.  ``serialize``
emits a canonical form that parses back to an equal circuit, and that it
writes back byte for byte; it writes each element's line from its columns.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import cached_property
from itertools import groupby
from math import inf, nan
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .fock import MAX_RAILS, check_n_rails, require_float, require_integer
from .gates import ARITY, BS, CC, KEYWORDS, MACROS, PS, ElementColumns, float_table
from .timing import SepSource

_NUMBER_RE = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?$")
_NAME_RE = re.compile(r"[A-Za-z_]\w*$")
_WORD_RE = re.compile(r"\S+")


def _decimal(digits: str) -> int | None:
    """Value of a string of decimal digits; None past ``int``'s digit limit."""
    try:
        return int(digits)
    except ValueError:
        return None


def _literal(text: str) -> float | None:
    """Value of ``text`` if it is a finite ``_NUMBER_RE`` literal, else None.

    ``float`` reads a superset of ``_NUMBER_RE``: it also takes ``inf``,
    ``nan`` and digit groups such as ``1_0``.  A word without ``_`` that
    ``float`` reads as a finite value therefore matches the pattern, so this
    one ``float`` call is the whole test; ``_LineParser._number`` writes the
    diagnostic when it fails.  ``_LineParser.feed`` makes the same test
    inline on the canonical spelling: a ``float`` call on a word without
    ``_``, whose value the column check refuses unless it is finite.
    """
    try:
        value = float(text)
    except ValueError:
        return None
    return value if math.isfinite(value) and "_" not in text else None


class Segment(NamedTuple):
    """Wire of ``length`` um on ``rail``, placed before ``elements[position]``.

    ``position == len(elements)`` marks trailing wire after the last element.
    ``Circuit`` rejects positions and rails out of range and lengths that are
    negative or not finite.  A circuit holds its wire as columns and builds
    its segments only when they are read.
    """

    rail: int
    length: float
    position: int


def _wire_columns(rows: list) -> tuple:
    """The wire columns, rails, lengths and positions, of a flat list of
    ``(rail, length, position)`` rows; a rail or position past the integer
    range is clipped, and stays out of range."""
    table = float_table(rows, 3)
    ints = table[:, ::2].clip(-2.0**62, 2.0**62).astype(np.intp)
    return ints[:, 0], table[:, 1], ints[:, 1]


def _refused(n_rails: int, columns: ElementColumns, wire: tuple) -> tuple:
    """The one validation point of a circuit: masks of the element rows
    (``ElementColumns.refused``) and of the segments it refuses.  ``wire``
    is the three wire columns, rails, lengths and positions; a segment
    needs a rail in ``[0, n_rails)``, a position in ``[0, len(columns)]``
    and a finite length ``>= 0``."""
    rails, lengths, positions = wire
    # a negative rail or position reads as a large unsigned one
    return columns.refused(n_rails), (
        (rails.view(np.uintp) >= n_rails) | (positions.view(np.uintp) > len(columns))
        | ~((lengths >= 0.0) & (lengths < inf)))


@dataclass(frozen=True)
class ParseDiagnostic:
    line: int
    column: int
    message: str
    severity: str = "error"

    def __str__(self) -> str:
        return f"{self.line}:{self.column}: {self.severity}: {self.message}"


@dataclass(frozen=True, init=False, eq=False)
class Circuit:
    """Validated, immutable circuit: rails, placed elements, wiring, sources,
    readout.  ``dataclasses.replace`` derives a validated variant.

    The circuit is held in one compiled form, built once: its elements as
    ``columns``, a ``gates.ElementColumns``, and its wire as
    ``wire_columns``, three arrays (rail, length, position) in the canonical
    netlist order, sorted stably by position so that each position's wire
    keeps its declaration order.  The stages read these columns.
    ``elements`` (``tuple(columns)``: new objects built from the rows, for
    a hand-built circuit too), ``segments``, ``wire`` (the segments grouped
    by position) and ``expanded`` are derived on first read; ``==`` and
    ``hash`` compare the columns and the other fields.

    Elements must be of the types ``serialize`` writes, else ``TypeError``.
    Rail counts, rails and segment positions must be integers in range; the
    rail count and the detectors are stored as ``int``.  The constructor
    is the one check of hand-built sources, detectors and registers
    (``_checked_readout``); a parse checks each as it reads its line, and an
    expansion copies the declared circuit's.

    ``registers`` is the one form of a dual-rail register: each is stored as
    ``(name, (rail0, rail1))`` with ``int`` rails, whose first rail carries
    logical 0.  A register needs an identifier name that no other register
    has and exactly two rails in ``[0, n_rails)``, distinct within and
    across registers.
    """

    n_rails: int
    elements: tuple
    segments: tuple
    sources: tuple = ()
    detectors: tuple = ()
    registers: tuple = ()  # (name, (rail0, rail1))
    _macros: bool = field(init=False, repr=False, compare=False)

    def __init__(self, n_rails: int, elements=(), segments=(), sources=(),
                 detectors=(), registers=()):
        n_rails = int(require_integer(n_rails, "rail count"))
        check_n_rails(n_rails)
        elements = tuple(elements)
        columns = ElementColumns.of(elements)
        rows = []  # the segments' (rail, length, position) rows, in the order given
        for seg in segments:
            rail, length, position = Segment._make(seg)
            require_integer(position, "segment position")
            rows += (require_integer(rail, "segment rail"),
                     require_float(length, "segment length"), position)
        wire = _wire_columns(rows)
        refused_elements, refused_wire = _refused(n_rails, columns, wire)
        if refused_elements.any():
            # each element checked its other facts: a rail is out of range,
            # named as given, since the columns clip a rail past 2^62
            index = int(refused_elements.argmax())
            element = elements[index]
            rail = next(r for r in element.rails if not 0 <= r < n_rails)
            raise ValueError(f"element {index} ({element.keyword}) rail "
                             f"{rail} outside [0, {n_rails})")
        if refused_wire.any():
            at = 3 * int(refused_wire.argmax())
            seg = Segment(*rows[at:at + 3])
            raise ValueError((
                f"segment position {seg.position} outside [0, {len(columns)}]"
                if not 0 <= seg.position <= len(columns) else
                f"segment rail {seg.rail} outside [0, {n_rails})"
                if not 0 <= seg.rail < n_rails else
                "segment length must be finite and >= 0") + f": {seg!r}")
        order = wire[2].argsort(kind="stable")
        self._store(n_rails, columns, tuple(column[order] for column in wire),
                    *_checked_readout(n_rails, sources, detectors, registers))

    def _store(self, n_rails, columns, wire, sources, detectors, registers):
        """Store the fields as given: the columns, which passed
        ``_refused``, the wire in netlist order, and the checked tuples of
        sources, detectors and registers."""
        self.__dict__.update(
            n_rails=n_rails, sources=sources, detectors=detectors,
            registers=registers, columns=columns, wire_columns=wire,
            _macros=bool((columns.kinds > CC).any()))

    def _key(self) -> tuple:
        # the columns' bytes; + 0 makes -0.0, which == 0.0, 0.0
        columns = (self.columns.ints, self.columns.floats, *self.wire_columns)
        return (self.n_rails, *((column + 0).tobytes() for column in columns),
                self.sources, self.detectors, self.registers)

    def __eq__(self, other):
        if type(other) is not Circuit:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @cached_property
    def elements(self) -> tuple:
        return tuple(self.columns)

    @cached_property
    def segments(self) -> tuple:
        return tuple(map(Segment._make, zip(*(c.tolist() for c in self.wire_columns))))

    @cached_property
    def wire(self) -> tuple:
        """``wire[p]``: the segments placed before ``elements[p]``, in
        declaration order; ``wire[-1]`` is the trailing wire and ``()``
        stands at a position without wire.  Grouped from ``segments`` on
        first read and kept."""
        wire = [()] * (len(self.columns) + 1)
        for position, group in groupby(self.segments, itemgetter(2)):
            wire[position] = tuple(group)
        return tuple(wire)

    @property
    def expanded(self) -> Circuit:
        """The primitive form every stage reads: this circuit when it holds
        no macro, else its expansion, derived on first use and kept."""
        return self._expanded if self._macros else self

    @cached_property
    def _expanded(self) -> Circuit:
        """This circuit with each macro replaced by its primitives
        (``ElementColumns.expanded``), without a second check of the columns
        or of the sources, detectors and registers it copies.  Each
        segment moves to the expanded position of the element it preceded,
        so wire declared before a macro stays before its first primitive.
        The result holds no macro, so its own ``expanded`` is itself, and no
        reference leads back here."""
        columns, offsets = self.columns.expanded()
        rails, lengths, positions = self.wire_columns
        derived = object.__new__(Circuit)
        derived._store(self.n_rails, columns, (rails, lengths, offsets[positions]),
                       self.sources, self.detectors, self.registers)
        return derived


def _checked_readout(n_rails: int, sources, detectors, registers) -> tuple:
    """Hand-built sources, detectors and registers as the tuples a
    ``Circuit`` stores, else ``ValueError``: rails in ``[0, n_rails)``, one
    source per rail, no repeated detector, and registers with distinct
    identifier names and two rails each, distinct across registers.
    Detector and register rails are stored as ``int``; ``SepSource`` checks
    and stores its own rail so."""
    sources = tuple(sources)
    source_rails = set()
    for src in sources:
        if not 0 <= src.rail < n_rails:
            raise ValueError(f"source rail {src.rail} outside [0, {n_rails})")
        if src.rail in source_rails:
            raise ValueError(f"two sources on rail {src.rail}")
        source_rails.add(src.rail)
    detectors = tuple(detectors)
    for rail in detectors:
        if not 0 <= require_integer(rail, "detector rail") < n_rails:
            raise ValueError(f"detector rail {rail} outside [0, {n_rails})")
    if len(set(detectors)) != len(detectors):
        raise ValueError(f"detector rails repeat: {detectors}")
    checked, register_rails = [], set()
    for name, pair in registers:
        if not (isinstance(name, str) and _NAME_RE.fullmatch(name)):
            raise ValueError(f"invalid register name {name!r}")
        if any(name == seen for seen, _ in checked):
            raise ValueError(f"duplicate register name '{name}'")
        pair = tuple(pair)
        if len(pair) != 2:
            raise ValueError(f"register '{name}' needs two rails, got "
                             f"{len(pair)}: {pair}")
        for rail in pair:
            if not 0 <= require_integer(rail, "register rail") < n_rails:
                raise ValueError(f"register '{name}' rail {rail} outside "
                                 f"[0, {n_rails})")
            if rail in register_rails:
                raise ValueError(f"register rails must be distinct: "
                                 f"register '{name}' repeats rail {rail}")
            register_rails.add(rail)
        checked.append((name, (int(pair[0]), int(pair[1]))))
    return sources, tuple(map(int, detectors)), tuple(checked)


class NetlistError(Exception):
    """Raised by the convenience APIs when a netlist does not parse."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(str(d) for d in self.diagnostics))


@dataclass
class ParseResult:
    """``circuit`` as declared, None when an error was diagnosed; its
    ``expanded`` is the circuit to simulate."""

    circuit: Circuit | None
    diagnostics: list

    @property
    def ok(self) -> bool:
        return self.circuit is not None

    def errors(self) -> list:
        return [d for d in self.diagnostics if d.severity == "error"]


# every element statement: keyword -> (kind code, usage, keyed numbers as
# (key, unit, range rule or "")).  A primitive also takes a trailing len=<x>um;
# a macro's entry is derived from gates.MACROS and holds no number
_ELEMENTS = {
    "ps": (PS, "ps <rail> phi=<x>rad [len=<x>um]", (("phi", "rad", ""),)),
    "bs": (BS, "bs <railA> <railB> lc=<x>um lt=<x>um [len=<x>um]",
           (("lc", "um", ">= 0"), ("lt", "um", "> 0"))),
    "cc": (CC, "cc <railA> <railB> chit=<x>rad [len=<x>um]", (("chit", "rad", ""),)),
    **{name: (KEYWORDS.index(name), " ".join([name, *(f"<{p}>" for p in params)]), ())
       for name, (params, _) in MACROS.items()},
}
# a keyed number's range rule, by the words its diagnostic names it with
_RULES = {">= 0": lambda value: value >= 0, "> 0": lambda value: value > 0}
# each macro keyword's kind code and word count, for the inline read
_MACRO_ROWS = {name: (kind, 1 + ARITY[kind])
               for name, (kind, _, _) in _ELEMENTS.items() if kind > CC}


class _LineParser:
    """Single-pass statement parser collecting diagnostics.

    Each line is split into words with ``str.split`` and dispatched on its
    keyword through ``_HANDLERS``, one table for every statement; every
    element keyword, the macros included, goes to ``_stmt_element``.  An
    element or segment is one row of numbers: the element's kind code, its
    three padded rails and its three numbers (see ``gates.ElementColumns``),
    or the segment's rail, length and position.  With ``fast`` set,
    ``feed`` itself reads the canonical spelling of the ``segment``, ``ps``,
    ``bs``, ``cc`` and macro lines, the one ``serialize`` writes (the
    ``q<i>`` table, one ``float`` call per number, once per distinct wire
    or transfer length word), and appends its row unchecked, for
    ``_refused`` to check; only when that read fails does the line go to
    its handler, whose ``_rail``, ``_split_len``, ``_value_with_unit`` and
    ``_number`` accept the other spellings (``PHI=``, ``1UM``, ``q01``,
    ``len=``) or write the diagnostic through ``diagnose``.  Without
    ``fast`` every line takes that general path, whose rows are checked as
    they are read.  A diagnostic points at a word by index; the word's
    column is computed only then, by ``_column``.
    """

    def __init__(self, fast: bool = True):
        self.fast = fast
        self.diagnostics: list[ParseDiagnostic] = []
        self.n_rails: int | None = None
        # the rows as flat lists of numbers, made columns in one pass at the
        # end: seven numbers per element, three per segment
        self._elements: list[float] = []
        self._wire: list[float] = []
        self.sources: list[SepSource] = []
        self.detectors: list[int] = []
        self.registers: list[tuple[str, tuple[int, int]]] = []
        self._source_rails: set[int] = set()
        self._register_rails: dict[int, str] = {}
        self._rail_names: dict[str, int] = {}  # canonical "q<i>" -> i
        self._line_no = 0
        self._line = ""

    def _column(self, index: int) -> int:
        """1-based column of word ``index`` of the current line.

        Words are the runs of non-whitespace in the whole line; those before
        a ``#`` start where the words of the comment-stripped line do.
        """
        starts = [match.start() for match in _WORD_RE.finditer(self._line)]
        return starts[index] + 1

    def diagnose(self, index: int, message: str, severity: str = "error") -> None:
        self.diagnostics.append(ParseDiagnostic(
            self._line_no, self._column(index), message, severity))

    # --- word helpers --------------------------------------------------

    def _rail(self, words, index) -> int | None:
        text = words[index]
        rail = self._rail_names.get(text)
        if rail is not None:
            return rail
        digits = text[1:]
        if text[:1] != "q" or not digits.isdecimal():
            self.diagnose(index, f"invalid rail identifier '{text}' "
                                 f"(rails are named q0..q{(self.n_rails or 1) - 1})")
            return None
        rail = _decimal(digits)  # non-canonical spelling: q01, Unicode digits
        if self.n_rails is None or rail is None or rail >= self.n_rails:
            self.diagnose(index, f"rail {text} out of range "
                                 f"(rails {self.n_rails or 0})")
            return None
        return rail

    def _number(self, text: str, index: int, what: str) -> float | None:
        """Value of a finite ``_NUMBER_RE`` literal, else None and a diagnostic."""
        value = _literal(text)
        if value is not None:
            return value
        if not _NUMBER_RE.fullmatch(text):
            self.diagnose(index, f"invalid number '{text}' in {what}")
        else:  # a literal past the float range, such as 1e400
            self.diagnose(index, f"{what} must be finite")
        return None

    def _value_with_unit(self, words, index, key: str, unit: str) -> float | None:
        """Parse ``key=<number><unit>``; key and unit are case-insensitive.

        ``_LineParser.feed`` reads the canonical spelling inline, so this
        runs for ``sep`` delays and the other spellings, and writes the
        diagnostic.
        """
        text = words[index]
        name, sep, raw = text.partition("=")
        if not sep:
            self.diagnose(index, f"expected {key}=<value>{unit}, got '{text}'")
            return None
        if name.lower() != key:
            self.diagnose(index, f"expected attribute '{key}', got '{name}'")
            return None
        if len(raw) < len(unit) or raw[-len(unit):].lower() != unit:
            self.diagnose(index, f"{key} requires a '{unit}' unit suffix, "
                                 f"got '{raw}'")
            return None
        return self._number(raw[:-len(unit)], index, key)

    def _expect_count(self, words, count: int, usage: str) -> bool:
        if len(words) - 1 == count:
            return True
        # point at the first surplus word, or at the keyword when short
        self.diagnose(count + 1 if len(words) - 1 > count else 0, f"usage: {usage}")
        return False

    def _split_len(self, words) -> tuple[list, float | None]:
        """``words`` without a trailing ``len=<x>um`` attribute, and its value:
        NaN when there is none, None after a diagnostic when it is invalid."""
        index = len(words) - 1
        if not words[index].lower().startswith("len="):
            return words, nan
        value = self._value_with_unit(words, index, "len", "um")
        if value is not None and value < 0:
            self.diagnose(index, "len must be >= 0")
            value = None
        return words[:index], value

    # --- statement handlers --------------------------------------------

    def _stmt_rails(self, words):
        if not self._expect_count(words, 1, "rails <n>"):
            return
        if self.n_rails is not None:
            self.diagnose(0, "duplicate rails declaration")
            return
        text = words[1]
        if not text.isdecimal():
            self.diagnose(1, f"rail count must be a positive integer, got '{text}'")
            return
        count = _decimal(text)
        if count is not None and count < 1:
            self.diagnose(1, "rail count must be >= 1")
            return
        if count is None or count > MAX_RAILS:
            self.diagnose(1, f"rail count {text if count is None else count} "
                             f"exceeds the capacity of {MAX_RAILS}")
            return
        self.n_rails = count
        self._rail_names = {f"q{rail}": rail for rail in range(count)}

    def _stmt_segment(self, words):
        if not self._expect_count(words, 2, "segment <rail> <length>um"):
            return
        text = words[2]
        rail = self._rail(words, 1)
        if len(text) < 2 or text[-2:].lower() != "um":
            self.diagnose(2, f"segment length requires a 'um' suffix, "
                             f"got '{text}'")
            return
        length = self._number(text[:-2], 2, "segment length")
        if length is None:
            return
        if length < 0:
            self.diagnose(2, "segment length must be >= 0")
            return
        if rail is None:
            return
        self._wire += (rail, length, len(self._elements) // 7)

    def _stmt_sep(self, words):
        if len(words) not in (3, 4):
            self.diagnose(0, "usage: sep <rail> delay=<t>ps [empty]")
            return
        rail = self._rail(words, 1)
        delay = self._value_with_unit(words, 2, "delay", "ps")
        emits = True
        if len(words) == 4:
            if words[3].lower() != "empty":
                self.diagnose(3, f"unexpected token '{words[3]}' "
                                 f"(only 'empty' may follow the delay)")
                return
            emits = False
        if rail is None or delay is None:
            return
        if delay < 0:
            self.diagnose(2, "delay must be >= 0")
            return
        if rail in self._source_rails:
            self.diagnose(1, f"duplicate source for rail q{rail}")
            return
        self._source_rails.add(rail)
        self.sources.append(SepSource(rail, delay, emits))

    def _stmt_dualrail(self, words):
        if not self._expect_count(words, 3, "dualrail <name> <rail0> <rail1>"):
            return
        name = words[1]
        if not _NAME_RE.fullmatch(name):
            self.diagnose(1, f"invalid register name '{name}'")
            return
        rail0 = self._rail(words, 2)
        rail1 = self._rail(words, 3)
        if rail0 is None or rail1 is None:
            return
        if rail0 == rail1:
            self.diagnose(3, "register rails must be distinct")
            return
        if any(n == name for n, _ in self.registers):
            self.diagnose(1, f"duplicate register name '{name}'")
            return
        for rail, index in ((rail0, 2), (rail1, 3)):
            if rail in self._register_rails:
                self.diagnose(index, f"rail q{rail} already used by register "
                                     f"'{self._register_rails[rail]}'")
                return
        self._register_rails[rail0] = name
        self._register_rails[rail1] = name
        self.registers.append((name, (rail0, rail1)))

    def _stmt_element(self, words):
        """Every element statement, read by its ``_ELEMENTS`` entry.  The
        diagnostics come in this order: the ``len=`` attribute, each bad
        rail, equal rails when every rail is valid, each keyed number, then
        the first range rule that fails."""
        kind, usage, numbers = _ELEMENTS[words[0].lower()]
        arity = ARITY[kind]
        words, length = self._split_len(words) if kind <= CC else (words, nan)
        if not self._expect_count(words, arity + len(numbers), usage):
            return
        rails = [self._rail(words, index) for index in range(1, 1 + arity)]
        valid = None not in rails
        if valid and len(set(rails)) < arity:
            macro = kind > CC  # a coupler's error is at its second rail
            self.diagnose(1 if macro else 2,
                          f"{'macro' if macro else 'coupler'} rails must be distinct")
            valid = False
        values = [self._value_with_unit(words, index, key, unit)
                  for index, (key, unit, _) in enumerate(numbers, 1 + arity)]
        if not valid or None in values:
            return
        for index, ((key, _, rule), value) in enumerate(zip(numbers, values),
                                                        1 + arity):
            if rule and not _RULES[rule](value):
                self.diagnose(index, f"{key} must be {rule}")
                return
        if length is not None:  # rails and numbers padded to three and two
            self._elements += (kind, rails[0], rails[:2][-1], rails[-1],
                               *(values + [0.0, 0.0])[:2], length)

    def _stmt_set(self, words):
        if not self._expect_count(words, 1, "set <rail>"):
            return
        rail = self._rail(words, 1)
        if rail is None:
            return
        if rail in self.detectors:
            self.diagnose(1, f"duplicate detector on rail q{rail}", "warning")
            return
        self.detectors.append(rail)

    # --- driver ---------------------------------------------------------

    _HANDLERS = {
        "rails": _stmt_rails,
        "segment": _stmt_segment,
        "sep": _stmt_sep,
        "dualrail": _stmt_dualrail,
        "set": _stmt_set,
        **dict.fromkeys(_ELEMENTS, _stmt_element),
    }

    def feed(self, text: str) -> None:
        handlers, fast, macros = self._HANDLERS, self.fast, _MACRO_ROWS
        wire, elements, names = self._wire, self._elements, self._rail_names
        lengths, transfers = {}, {}  # a wire or transfer length word -> value
        line_no = 1
        for line_no, line in enumerate(text.splitlines(), start=1):
            words = (line.partition("#")[0] if "#" in line else line).split()
            if not words:
                continue
            keyword = words[0]
            # the canonical spellings, which serialize writes, read inline:
            # q<i> rails, each number one float call on a word with its key=
            # and unit, no "_" on the line; the wire lengths and transfer
            # lengths, which repeat, once per distinct word.  A rail not in
            # the table or a number float cannot read leaves the line to its
            # handler
            if fast and "_" not in line:
                try:
                    count = len(words)
                    if keyword == "segment" and count == 3:
                        rail, x = names[words[1]], words[2]
                        length = lengths.get(x)
                        if length is None and x[-2:] == "um":
                            length = lengths[x] = float(x[:-2])
                        if length is not None:
                            wire += (rail, length, len(elements) // 7)
                            continue
                    elif keyword == "ps" and count == 3:
                        rail, x = names[words[1]], words[2]
                        if x[:4] == "phi=" and x[-3:] == "rad":
                            elements += (PS, rail, rail, rail, float(x[4:-3]), 0.0, nan)
                            continue
                    elif keyword == "bs" and count == 5:
                        a, b, x, y = names[words[1]], names[words[2]], words[3], words[4]
                        transfer = transfers.get(y)
                        if transfer is None and y[:3] == "lt=" and y[-2:] == "um":
                            transfer = transfers[y] = float(y[3:-2])
                        if transfer is not None and x[:3] == "lc=" and x[-2:] == "um":
                            elements += (BS, a, b, b, float(x[3:-2]), transfer, nan)
                            continue
                    elif keyword == "cc" and count == 4:
                        a, b, x = names[words[1]], names[words[2]], words[3]
                        if x[:5] == "chit=" and x[-3:] == "rad":
                            elements += (CC, a, b, b, float(x[5:-3]), 0.0, nan)
                            continue
                    elif count == macros.get(keyword, (0, 0))[1]:
                        # two or three rails, padded to three
                        elements += (macros[keyword][0], names[words[1]], names[words[2]],
                                     names[words[-1]], 0.0, 0.0, nan)
                        continue
                except (KeyError, ValueError):
                    pass  # not canonical: read or diagnosed by the handler
            self._line_no = line_no
            self._line = line
            handler = handlers.get(keyword)
            if handler is None:  # keywords are case-insensitive
                keyword = keyword.lower()
                handler = handlers.get(keyword)
            if self.n_rails is None and keyword != "rails":
                self.diagnose(0, "no rails declared (the first statement must be "
                                 "'rails <n>')")
                continue
            if handler is None:
                self.diagnose(0, f"unknown statement '{words[0]}'")
            else:
                handler(self, words)
                names = self._rail_names  # set by the rails statement
        if self.n_rails is None:
            self.diagnostics.append(ParseDiagnostic(line_no, 1, "no rails declared"))

    def result(self) -> ParseResult | None:
        """The parse, or None when ``_refused`` refuses a row that the
        inline read took: then the text must be read again without it."""
        columns = ElementColumns.of_rows(self._elements)
        wire = _wire_columns(self._wire)
        # a text without a rail count has no rows
        if any(refused.any() for refused in _refused(self.n_rails or 1, columns, wire)):
            return None
        if any(d.severity == "error" for d in self.diagnostics):
            return ParseResult(None, self.diagnostics)
        # each source, detector and register was checked as its line was read
        circuit = object.__new__(Circuit)
        circuit._store(self.n_rails, columns, wire, tuple(self.sources),
                       tuple(self.detectors), tuple(self.registers))
        return ParseResult(circuit, self.diagnostics)


def parse(source_text: str) -> ParseResult:
    """Parse netlist text; total, never raises on malformed input.

    The text is read once with the inline canonical reads; when the column
    check refuses a row, it is read again by the general path alone, which
    writes the diagnostics."""
    try:
        text = str(source_text)
    except Exception:  # pragma: no cover - str() on str input cannot fail
        return ParseResult(None, [ParseDiagnostic(1, 1, "unreadable input")])
    for fast in (True, False):
        parser = _LineParser(fast)
        parser.feed(text)
        result = parser.result()
        # the general path checks each row as it reads it, so the second
        # pass always has a result
        if result is not None:
            return result


def parse_circuit(source_text: str) -> Circuit:
    """Parse and raise ``NetlistError`` on any error diagnostic."""
    result = parse(source_text)
    if not result.ok:
        raise NetlistError(result.errors())
    return result.circuit


def serialize(circuit: Circuit) -> str:
    """Canonical netlist text; ``parse(serialize(c))`` equals ``c``.

    Each line is written from the columns, with the rail names read from
    one ``q<i>`` table and every number with ``!r``, the shortest float
    literal that round-trips exactly: the segment lines, then the element
    lines of each kind.  One stable sort then puts them in netlist order,
    the segments at position ``p`` before element ``p``.
    """
    q = [f"q{rail}" for rail in range(circuit.n_rails)]
    lines = [f"rails {circuit.n_rails}"]
    for src in circuit.sources:
        empty = "" if src.emits else " empty"
        lines.append(f"sep {q[src.rail]} delay={src.emission_delay!r}ps{empty}")
    for name, (rail0, rail1) in circuit.registers:
        lines.append(f"dualrail {name} {q[rail0]} {q[rail1]}")
    columns, (rails, lengths, positions) = circuit.columns, circuit.wire_columns
    body = [f"segment {q[r]} {x!r}um" for r, x in zip(rails.tolist(), lengths.tolist())]
    keys = [2 * positions]  # a body line's place: 2p for wire, 2p + 1 for element p
    for kind in set(columns.kinds.tolist()):
        rows = (columns.kinds == kind).nonzero()[0]
        keys.append(2 * rows + 1)
        r0, r1, r2 = columns.ints[rows, 1:].T.tolist()
        number, transfer = columns.floats[rows, :2].T.tolist()
        if kind == PS:
            kind_lines = [f"ps {q[a]} phi={x!r}rad" for a, x in zip(r0, number)]
        elif kind == BS:
            kind_lines = [f"bs {q[a]} {q[b]} lc={x!r}um lt={y!r}um"
                          for a, b, x, y in zip(r0, r1, number, transfer)]
        elif kind == CC:
            kind_lines = [f"cc {q[a]} {q[b]} chit={x!r}rad"
                          for a, b, x in zip(r0, r1, number)]
        else:
            kind_lines = [" ".join([KEYWORDS[kind], *[q[r] for r in row[:ARITY[kind]]]])
                          for row in zip(r0, r1, r2)]
        length = columns.floats[rows, 2]
        body += kind_lines if np.isnan(length).all() else [
            line if math.isnan(x) else f"{line} len={x!r}um"
            for line, x in zip(kind_lines, length.tolist())]
    lines += [body[i] for i in np.concatenate(keys).argsort(kind="stable").tolist()]
    lines += [f"set {q[rail]}" for rail in circuit.detectors]
    lines.append("")
    return "\n".join(lines)


def expand_composites(circuit: Circuit) -> Circuit:
    """``circuit.expanded``: the circuit with its macros replaced by their
    primitive synthesis, or the circuit itself when it has none."""
    return circuit.expanded
