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

The front end is one pass over the text with one validation walk.  The
parser dispatches every statement, macros included, through one keyword
table and builds the circuit as declared (``ParseResult.circuit``), which
``Circuit``'s constructor validates and buckets by position once.  That
walk also records whether the circuit holds a macro, and every stage reads
``Circuit.expanded``, the primitive form: the circuit itself without a
macro, else its expansion, derived on first use without a second walk, for
a parsed circuit and a hand-built one alike.  ``serialize`` emits a
canonical form that parses back to an equal circuit.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import cached_property
from itertools import groupby, repeat
from operator import itemgetter
from typing import NamedTuple

from .fock import MAX_RAILS, require_float, require_integer
from .gates import (
    MACROS,
    CompositeGate,
    CoulombCoupler,
    GateElement,
    PhaseShifter,
    WaveguideCoupler,
    macro_elements,
)
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
    diagnostic when it fails.
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
    negative or not finite.  An immutable named tuple: long netlists hold
    thousands, and it is about half the construction cost of a frozen
    dataclass.
    """

    rail: int
    length: float
    position: int


def _segments(fields) -> list[Segment]:
    """Segments of ``(rail, length, position)`` triples, built in C: calling
    ``Segment`` runs the named tuple's ``__new__``, a Python function, per
    segment."""
    return list(map(tuple.__new__, repeat(Segment), fields))


@dataclass(frozen=True)
class ParseDiagnostic:
    line: int
    column: int
    message: str
    severity: str = "error"

    def __str__(self) -> str:
        return f"{self.line}:{self.column}: {self.severity}: {self.message}"


@dataclass(frozen=True)
class Circuit:
    """Validated, immutable circuit: rails, placed elements, wiring, sources,
    readout.  ``dataclasses.replace`` derives a validated variant.

    Rail counts, rails and segment positions must be integers in range.  The
    constructor stores the container fields as tuples and derives attributes
    that equality ignores: ``wire[p]``, the segments placed before
    ``elements[p]`` in declaration order (``wire[-1]`` is the trailing wire;
    ``()`` at a position without wire), and ``expanded``.  ``segments`` is
    ``wire`` flattened: the canonical netlist order.

    ``registers`` is the one form of a dual-rail register: each is stored as
    ``(name, (rail0, rail1))`` with ``int`` rails, whose first rail carries
    logical 0.  A register needs an identifier name that no other register
    has and exactly two rails in ``[0, n_rails)``, distinct within and
    across registers.
    """

    n_rails: int
    elements: tuple = ()
    segments: tuple = ()
    sources: tuple = ()
    detectors: tuple = ()
    registers: tuple = ()  # (name, (rail0, rail1))
    wire: tuple = field(init=False, repr=False, compare=False)
    _macros: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # the one validation point: every other stage indexes rails and reads
        # lengths without checking them again
        for name in ("elements", "sources", "detectors"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        n_rails = require_integer(self.n_rails, "rail count")
        if not 1 <= n_rails <= MAX_RAILS:
            raise ValueError(f"rail count {n_rails} outside [1, {MAX_RAILS}]")
        macros = False
        for index, element in enumerate(self.elements):
            if isinstance(element, CompositeGate):
                macros = True
            for rail in element.rails:  # integers: each element checks its own
                if not 0 <= rail < n_rails:
                    raise ValueError(
                        f"element {index} ({element.keyword}) rail "
                        f"{rail} outside [0, {n_rails})")
        n_positions = len(self.elements) + 1
        groups = {}  # position -> its segments, only where there is wire
        for seg in self.segments:
            if not 0 <= require_integer(seg.position, "segment position") < n_positions:
                raise ValueError(f"segment position {seg.position} outside "
                                 f"[0, {len(self.elements)}]: {seg!r}")
            if not 0 <= require_integer(seg.rail, "segment rail") < n_rails:
                raise ValueError(f"segment rail {seg.rail} outside "
                                 f"[0, {n_rails}): {seg!r}")
            if type(seg.length) is not float:
                seg = seg._replace(length=require_float(seg.length,
                                                        "segment length"))
            if not (math.isfinite(seg.length) and seg.length >= 0):
                raise ValueError(f"segment length must be finite and >= 0: "
                                 f"{seg!r}")
            group = groups.get(seg.position)
            if group is None:
                groups[seg.position] = [seg]
            else:
                group.append(seg)
        source_rails = set()
        for src in self.sources:
            if not 0 <= require_integer(src.rail, "source rail") < n_rails:
                raise ValueError(f"source rail {src.rail} outside [0, {n_rails})")
            if src.rail in source_rails:
                raise ValueError(f"two sources on rail {src.rail}")
            source_rails.add(src.rail)
        for rail in self.detectors:
            if not 0 <= require_integer(rail, "detector rail") < n_rails:
                raise ValueError(f"detector rail {rail} outside [0, {n_rails})")
        if len(set(self.detectors)) != len(self.detectors):
            raise ValueError(f"detector rails repeat: {self.detectors}")
        registers = []
        register_rails = set()
        for name, pair in self.registers:
            if not (isinstance(name, str) and _NAME_RE.fullmatch(name)):
                raise ValueError(f"invalid register name {name!r}")
            if any(name == seen for seen, _ in registers):
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
            registers.append((name, (int(pair[0]), int(pair[1]))))
        wire = [()] * n_positions
        for position, group in groups.items():
            wire[position] = tuple(group)
        object.__setattr__(self, "wire", tuple(wire))
        object.__setattr__(self, "segments", tuple(
            seg for position in sorted(groups) for seg in wire[position]))
        object.__setattr__(self, "registers", tuple(registers))
        object.__setattr__(self, "_macros", macros)

    @property
    def expanded(self) -> Circuit:
        """The primitive form every stage reads: this circuit when it holds
        no macro, else its expansion, derived on first use and kept."""
        return self._expanded if self._macros else self

    @cached_property
    def _expanded(self) -> Circuit:
        """This circuit with each macro replaced by its primitives, without
        a second validation walk.

        A macro builds its primitives on its own, validated rails.  Each
        segment moves to the expanded position of the element it preceded,
        so wire declared before a macro stays before its first primitive;
        the positions stay in netlist order, so the wire is regrouped in one
        ``groupby``.  The result holds no macro, so its own ``expanded`` is
        itself and no reference leads back here.
        """
        elements: list[GateElement] = []
        offsets: list[int] = []
        for element in self.elements:
            offsets.append(len(elements))
            if isinstance(element, CompositeGate):
                elements.extend(macro_elements(element.name, element.rails))
            else:
                elements.append(element)
        offsets.append(len(elements))
        segments = _segments((rail, length, offsets[position])
                             for rail, length, position in self.segments)
        wire = [()] * (len(elements) + 1)
        for position, group in groupby(segments, itemgetter(2)):
            wire[position] = tuple(group)
        derived = object.__new__(Circuit)
        derived.__dict__.update(self.__dict__, elements=tuple(elements),
                                segments=tuple(segments), wire=tuple(wire),
                                _macros=False)
        return derived


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


class _LineParser:
    """Single-pass statement parser collecting diagnostics.

    Each line is split into words with ``str.split`` and dispatched on its
    keyword through ``_HANDLERS``, one table for every statement, the macro
    keywords included.  ``_rail`` reads a rail from the ``q<i>`` table.  A
    number is read with one ``_literal`` call; only when that read fails do
    ``_number`` and ``_value_with_unit`` accept the other spellings
    (``PHI=``, ``1UM``) or write the diagnostic.  A diagnostic points at a
    word by index; the word's column is computed only then, by ``_column``.
    """

    def __init__(self, strict_hardware_phases: bool = False):
        self.strict = strict_hardware_phases
        self.diagnostics: list[ParseDiagnostic] = []
        self.n_rails: int | None = None
        self.elements: list[GateElement] = []
        # the wire as parallel fields, made Segments in one pass at the end;
        # a list of (rail, length, position) tuples would hold a second tuple
        # per segment while they are built
        self._wire_rails: list[int] = []
        self._wire_lengths: list[float] = []
        self._wire_positions: list[int] = []
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

    def error(self, index: int, message: str) -> None:
        self.diagnostics.append(ParseDiagnostic(
            self._line_no, self._column(index), message, "error"))

    def warning(self, index: int, message: str) -> None:
        self.diagnostics.append(ParseDiagnostic(
            self._line_no, self._column(index), message, "warning"))

    # --- word helpers --------------------------------------------------

    def _rail(self, words, index) -> int | None:
        text = words[index]
        rail = self._rail_names.get(text)
        if rail is not None:
            return rail
        digits = text[1:]
        if text[:1] != "q" or not digits.isdecimal():
            self.error(index, f"invalid rail identifier '{text}' "
                              f"(rails are named q0..q{(self.n_rails or 1) - 1})")
            return None
        rail = _decimal(digits)  # non-canonical spelling: q01, Unicode digits
        if self.n_rails is None or rail is None or rail >= self.n_rails:
            self.error(index, f"rail {text} out of range "
                              f"(rails {self.n_rails or 0})")
            return None
        return rail

    def _number(self, text: str, index: int, what: str) -> float | None:
        """Value of a finite ``_NUMBER_RE`` literal, else None and a diagnostic."""
        value = _literal(text)
        if value is not None:
            return value
        if not _NUMBER_RE.fullmatch(text):
            self.error(index, f"invalid number '{text}' in {what}")
        else:  # a literal past the float range, such as 1e400
            self.error(index, f"{what} must be finite")
        return None

    def _value_with_unit(self, words, index, key: str, unit: str) -> float | None:
        """Parse ``key=<number><unit>``; key and unit are case-insensitive.

        The exact lower-case spelling is read with one ``_literal``; the
        other spellings are read, or the diagnostic written, only when that
        fails.
        """
        text = words[index]
        start = len(key) + 1
        if (text[start - 1:start] == "=" and text.startswith(key)
                and text.endswith(unit)):
            value = _literal(text[start:len(text) - len(unit)])
            if value is not None:
                return value
        name, sep, raw = text.partition("=")
        if not sep:
            self.error(index, f"expected {key}=<value>{unit}, got '{text}'")
            return None
        if name.lower() != key:
            self.error(index, f"expected attribute '{key}', got '{name}'")
            return None
        if len(raw) < len(unit) or raw[-len(unit):].lower() != unit:
            self.error(index, f"{key} requires a '{unit}' unit suffix, "
                              f"got '{raw}'")
            return None
        return self._number(raw[:-len(unit)], index, key)

    def _expect_count(self, words, count: int, usage: str) -> bool:
        if len(words) - 1 == count:
            return True
        # point at the first surplus word, or at the keyword when short
        self.error(count + 1 if len(words) - 1 > count else 0, f"usage: {usage}")
        return False

    def _split_len(self, words) -> tuple[list, float | None]:
        """``words`` without a trailing ``len=<x>um`` attribute, and its value:
        None when there is none, or after a diagnostic when it is invalid."""
        index = len(words) - 1
        if not words[index].lower().startswith("len="):
            return words, None
        value = self._value_with_unit(words, index, "len", "um")
        if value is not None and value < 0:
            self.error(index, "len must be >= 0")
            value = None
        return words[:index], value

    # --- statement handlers --------------------------------------------

    def _stmt_rails(self, words):
        if not self._expect_count(words, 1, "rails <n>"):
            return
        if self.n_rails is not None:
            self.error(0, "duplicate rails declaration")
            return
        text = words[1]
        if not text.isdecimal():
            self.error(1, f"rail count must be a positive integer, got '{text}'")
            return
        count = _decimal(text)
        if count is not None and count < 1:
            self.error(1, "rail count must be >= 1")
            return
        if count is None or count > MAX_RAILS:
            self.error(1, f"rail count {text if count is None else count} "
                          f"exceeds the capacity of {MAX_RAILS}")
            return
        self.n_rails = count
        self._rail_names = {f"q{rail}": rail for rail in range(count)}

    def _stmt_segment(self, words):
        if len(words) != 3:
            self._expect_count(words, 2, "segment <rail> <length>um")
            return
        rail = self._rail(words, 1)
        text = words[2]
        length = _literal(text[:-2]) if text[-2:] == "um" else None
        if length is None or length < 0:
            if len(text) < 2 or text[-2:].lower() != "um":
                self.error(2, f"segment length requires a 'um' suffix, "
                              f"got '{text}'")
                return
            length = self._number(text[:-2], 2, "segment length")
            if length is None:
                return
            if length < 0:
                self.error(2, "segment length must be >= 0")
                return
        if rail is None:
            return
        self._wire_rails.append(rail)
        self._wire_lengths.append(length)
        self._wire_positions.append(len(self.elements))

    def _stmt_sep(self, words):
        if len(words) not in (3, 4):
            self.error(0, "usage: sep <rail> delay=<t>ps [empty]")
            return
        rail = self._rail(words, 1)
        delay = self._value_with_unit(words, 2, "delay", "ps")
        emits = True
        if len(words) == 4:
            if words[3].lower() != "empty":
                self.error(3, f"unexpected token '{words[3]}' "
                              f"(only 'empty' may follow the delay)")
                return
            emits = False
        if rail is None or delay is None:
            return
        if delay < 0:
            self.error(2, "delay must be >= 0")
            return
        if rail in self._source_rails:
            self.error(1, f"duplicate source for rail q{rail}")
            return
        self._source_rails.add(rail)
        self.sources.append(SepSource(rail, delay, emits))

    def _stmt_ps(self, words):
        words, length = self._split_len(words)
        if len(words) != 3:
            self._expect_count(words, 2, "ps <rail> phi=<x>rad [len=<x>um]")
            return
        rail = self._rail(words, 1)
        phi = self._value_with_unit(words, 2, "phi", "rad")
        if rail is None or phi is None:
            return
        element = PhaseShifter(rail, phi, length)
        if self.strict and not element.hardware_realizable:
            self.error(2, f"phi {phi:g} outside the hardware range (0, pi)")
            return
        self.elements.append(element)

    def _coupler_rails(self, words) -> tuple[int, int] | None:
        rail_a = self._rail(words, 1)
        rail_b = self._rail(words, 2)
        if rail_a is None or rail_b is None:
            return None
        if rail_a == rail_b:
            self.error(2, "coupler rails must be distinct")
            return None
        return rail_a, rail_b

    def _stmt_bs(self, words):
        words, length = self._split_len(words)
        if len(words) != 5:
            self._expect_count(
                words, 4, "bs <railA> <railB> lc=<x>um lt=<x>um [len=<x>um]")
            return
        rails = self._coupler_rails(words)
        lc = self._value_with_unit(words, 3, "lc", "um")
        lt = self._value_with_unit(words, 4, "lt", "um")
        if rails is None or lc is None or lt is None:
            return
        if lc < 0:
            self.error(3, "lc must be >= 0")
            return
        if lt <= 0:
            self.error(4, "lt must be > 0")
            return
        self.elements.append(WaveguideCoupler(rails, lc, lt, length))

    def _stmt_cc(self, words):
        words, length = self._split_len(words)
        if len(words) != 4:
            self._expect_count(words, 3,
                               "cc <railA> <railB> chit=<x>rad [len=<x>um]")
            return
        rails = self._coupler_rails(words)
        chi_t = self._value_with_unit(words, 3, "chit", "rad")
        if rails is None or chi_t is None:
            return
        self.elements.append(CoulombCoupler(rails, chi_t, length))

    def _stmt_macro(self, words):
        name = words[0].lower()
        params = MACROS[name][0]
        if len(words) - 1 != len(params):
            self._expect_count(words, len(params), " ".join(
                [name] + [f"<{param}>" for param in params]))
            return
        rails = []
        for index in range(1, len(words)):
            rail = self._rail(words, index)
            if rail is None:
                return
            rails.append(rail)
        if len(set(rails)) != len(rails):
            self.error(1, "macro rails must be distinct")
            return
        self.elements.append(CompositeGate(name, tuple(rails)))

    def _stmt_dualrail(self, words):
        if not self._expect_count(words, 3, "dualrail <name> <rail0> <rail1>"):
            return
        name = words[1]
        if not _NAME_RE.fullmatch(name):
            self.error(1, f"invalid register name '{name}'")
            return
        rail0 = self._rail(words, 2)
        rail1 = self._rail(words, 3)
        if rail0 is None or rail1 is None:
            return
        if rail0 == rail1:
            self.error(3, "register rails must be distinct")
            return
        if any(n == name for n, _ in self.registers):
            self.error(1, f"duplicate register name '{name}'")
            return
        for rail, index in ((rail0, 2), (rail1, 3)):
            if rail in self._register_rails:
                self.error(index, f"rail q{rail} already used by register "
                                  f"'{self._register_rails[rail]}'")
                return
        self._register_rails[rail0] = name
        self._register_rails[rail1] = name
        self.registers.append((name, (rail0, rail1)))

    def _stmt_set(self, words):
        if not self._expect_count(words, 1, "set <rail>"):
            return
        rail = self._rail(words, 1)
        if rail is None:
            return
        if rail in self.detectors:
            self.warning(1, f"duplicate detector on rail q{rail}")
            return
        self.detectors.append(rail)

    # --- driver ---------------------------------------------------------

    _HANDLERS = {
        "rails": _stmt_rails,
        "segment": _stmt_segment,
        "sep": _stmt_sep,
        "ps": _stmt_ps,
        "bs": _stmt_bs,
        "cc": _stmt_cc,
        "dualrail": _stmt_dualrail,
        "set": _stmt_set,
        **dict.fromkeys(MACROS, _stmt_macro),
    }

    def feed(self, text: str) -> None:
        handlers = self._HANDLERS
        line_no = 1
        for line_no, line in enumerate(text.splitlines(), start=1):
            words = (line.partition("#")[0] if "#" in line else line).split()
            if not words:
                continue
            self._line_no = line_no
            self._line = line
            keyword = words[0].lower()
            if self.n_rails is None and keyword != "rails":
                self.error(0, "no rails declared (the first statement must be "
                              "'rails <n>')")
                continue
            handler = handlers.get(keyword)
            if handler is None:
                self.error(0, f"unknown statement '{words[0]}'")
            else:
                handler(self, words)
        if self.n_rails is None:
            self.diagnostics.append(ParseDiagnostic(line_no, 1, "no rails declared"))

    def result(self) -> ParseResult:
        if any(d.severity == "error" for d in self.diagnostics):
            return ParseResult(None, self.diagnostics)
        # the one validation walk
        circuit = Circuit(
            n_rails=self.n_rails,
            elements=self.elements,
            segments=_segments(zip(self._wire_rails, self._wire_lengths,
                                   self._wire_positions)),
            sources=self.sources,
            detectors=self.detectors,
            registers=self.registers,
        )
        return ParseResult(circuit, self.diagnostics)


def parse(source_text: str, strict_hardware_phases: bool = False) -> ParseResult:
    """Parse netlist text; total, never raises on malformed input."""
    parser = _LineParser(strict_hardware_phases)
    try:
        text = str(source_text)
    except Exception:  # pragma: no cover - str() on str input cannot fail
        return ParseResult(None, [ParseDiagnostic(1, 1, "unreadable input")])
    parser.feed(text)
    return parser.result()


def parse_circuit(source_text: str, strict_hardware_phases: bool = False) -> Circuit:
    """Parse and raise ``NetlistError`` on any error diagnostic."""
    result = parse(source_text, strict_hardware_phases)
    if not result.ok:
        raise NetlistError(result.errors())
    return result.circuit


def _fmt(value: float) -> str:
    """Shortest float literal that round-trips exactly."""
    return repr(float(value))


def _element_line(element: GateElement) -> str:
    suffix = ""
    if getattr(element, "length", None) is not None:
        suffix = f" len={_fmt(element.length)}um"
    if isinstance(element, PhaseShifter):
        return f"ps q{element.rail} phi={_fmt(element.phi)}rad{suffix}"
    if isinstance(element, WaveguideCoupler):
        a, b = element.rails
        return (f"bs q{a} q{b} lc={_fmt(element.coupling_length)}um "
                f"lt={_fmt(element.transfer_length)}um{suffix}")
    if isinstance(element, CoulombCoupler):
        a, b = element.rails
        return f"cc q{a} q{b} chit={_fmt(element.chi_t)}rad{suffix}"
    if isinstance(element, CompositeGate):
        rails = " ".join(f"q{r}" for r in element.rails)
        return f"{element.name} {rails}"
    raise TypeError(f"not a gate element: {element!r}")


def serialize(circuit: Circuit) -> str:
    """Canonical netlist text; ``parse(serialize(c))`` equals ``c``."""
    lines = [f"rails {circuit.n_rails}"]
    for src in circuit.sources:
        empty = "" if src.emits else " empty"
        lines.append(f"sep q{src.rail} delay={_fmt(src.emission_delay)}ps{empty}")
    for name, (rail0, rail1) in circuit.registers:
        lines.append(f"dualrail {name} q{rail0} q{rail1}")
    for position, group in enumerate(circuit.wire):
        for seg in group:
            lines.append(f"segment q{seg.rail} {_fmt(seg.length)}um")
        if position < len(circuit.elements):
            lines.append(_element_line(circuit.elements[position]))
    for rail in circuit.detectors:
        lines.append(f"set q{rail}")
    return "\n".join(lines) + "\n"


def expand_composites(circuit: Circuit) -> Circuit:
    """``circuit.expanded``: the circuit with its macros replaced by their
    primitive synthesis, or the circuit itself when it has none."""
    return circuit.expanded
