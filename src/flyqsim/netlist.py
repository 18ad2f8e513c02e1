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
(used by the path-length budget); it defaults to the coupling length for
``bs`` and to zero otherwise.

Parsing is total: malformed input produces diagnostics with 1-based line and
column positions, never an exception.  ``serialize`` emits a canonical form
that parses back to a structurally equal circuit.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

from . import dualrail as _dualrail
from .fock import MAX_RAILS
from .gates import (
    CompositeGate,
    CoulombCoupler,
    GateElement,
    PhaseShifter,
    WaveguideCoupler,
    element_keyword,
    rails_of,
)
from .timing import SepSource

_NUMBER_RE = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?$")
_RAIL_RE = re.compile(r"q(\d+)$")
_NAME_RE = re.compile(r"[A-Za-z_]\w*$")


@dataclass(frozen=True)
class Segment:
    """Wire of ``length`` um on ``rail``, placed before ``elements[position]``.

    ``position == len(elements)`` marks trailing wire after the last element;
    ``Circuit.segment_groups`` rejects positions and rails out of range.
    """

    rail: int
    length: float
    position: int


@dataclass(frozen=True)
class ParseDiagnostic:
    line: int
    column: int
    message: str
    severity: str = "error"

    def __str__(self) -> str:
        return f"{self.line}:{self.column}: {self.severity}: {self.message}"


@dataclass
class Circuit:
    """Validated circuit: rails, placed elements, wiring, sources, readout."""

    n_rails: int
    elements: list = field(default_factory=list)
    segments: list = field(default_factory=list)
    sources: list = field(default_factory=list)
    detectors: list = field(default_factory=list)
    registers: list = field(default_factory=list)  # (name, (rail0, rail1))

    def __post_init__(self):
        # the one validation point for element rails: serialize, the budget
        # and the schedule all index rails without checking them again
        for index, element in enumerate(self.elements):
            for rail in rails_of(element):
                if not 0 <= rail < self.n_rails:
                    raise ValueError(
                        f"element {index} ({element_keyword(element)}) rail "
                        f"{rail} outside [0, {self.n_rails})")
        # canonical segment order: by position, declaration order within one;
        # keeps parse(serialize(c)) == c for any valid circuit
        self.segments = sorted(self.segments, key=lambda s: s.position)

    def dual_rail_register(self):
        """Declared pairs as a DualRailRegister, or None when absent."""
        if not self.registers:
            return None
        return _dualrail.DualRailRegister(tuple(pair for _, pair in self.registers))

    def segment_groups(self) -> list:
        """Segments bucketed by position, in one pass over ``segments``.

        ``groups[p]`` lists the wire placed before ``elements[p]`` (and
        ``groups[len(elements)]`` the trailing wire), in list order.  This is
        the one validation point for segments: a ``position`` outside
        ``[0, len(elements)]`` or a ``rail`` outside ``[0, n_rails)`` raises
        ``ValueError``.  Not cached, so segments appended after construction
        are seen.
        """
        groups = [[] for _ in range(len(self.elements) + 1)]
        for seg in self.segments:
            if not 0 <= seg.position < len(groups):
                raise ValueError(f"segment position {seg.position} outside "
                                 f"[0, {len(self.elements)}]: {seg!r}")
            if not 0 <= seg.rail < self.n_rails:
                raise ValueError(f"segment rail {seg.rail} outside "
                                 f"[0, {self.n_rails}): {seg!r}")
            groups[seg.position].append(seg)
        return groups

    def has_composites(self) -> bool:
        return any(isinstance(e, CompositeGate) for e in self.elements)


class NetlistError(Exception):
    """Raised by the convenience APIs when a netlist does not parse."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(str(d) for d in self.diagnostics))


@dataclass
class ParseResult:
    circuit: Circuit | None
    diagnostics: list

    @property
    def ok(self) -> bool:
        return self.circuit is not None

    def errors(self) -> list:
        return [d for d in self.diagnostics if d.severity == "error"]


class _LineParser:
    """Single-pass statement parser collecting diagnostics."""

    def __init__(self, strict_hardware_phases: bool = False):
        self.strict = strict_hardware_phases
        self.diagnostics: list[ParseDiagnostic] = []
        self.n_rails: int | None = None
        self.elements: list[GateElement] = []
        self.segments: list[Segment] = []
        self.sources: list[SepSource] = []
        self.detectors: list[int] = []
        self.registers: list[tuple[str, tuple[int, int]]] = []
        self._source_rails: set[int] = set()
        self._register_rails: dict[int, str] = {}

    def error(self, line: int, column: int, message: str) -> None:
        self.diagnostics.append(ParseDiagnostic(line, column, message, "error"))

    def warning(self, line: int, column: int, message: str) -> None:
        self.diagnostics.append(ParseDiagnostic(line, column, message, "warning"))

    # --- token helpers -------------------------------------------------

    def _rail(self, tok, line) -> int | None:
        text, col = tok
        m = _RAIL_RE.fullmatch(text)
        if not m:
            self.error(line, col, f"invalid rail identifier '{text}' "
                                  f"(rails are named q0..q{(self.n_rails or 1) - 1})")
            return None
        index = int(m.group(1))
        if self.n_rails is None or index >= self.n_rails:
            self.error(line, col, f"rail {text} out of range "
                                  f"(rails {self.n_rails or 0})")
            return None
        return index

    def _number(self, text: str) -> float | None:
        if not _NUMBER_RE.fullmatch(text):
            return None
        try:
            return float(text)
        except ValueError:  # pragma: no cover - regex already guards
            return None

    def _value_with_unit(self, tok, line, key: str, unit: str) -> float | None:
        """Parse ``key=<number><unit>``; key and unit are case-insensitive."""
        text, col = tok
        if "=" not in text:
            self.error(line, col, f"expected {key}=<value>{unit}, got '{text}'")
            return None
        name, _, raw = text.partition("=")
        if name.lower() != key:
            self.error(line, col, f"expected attribute '{key}', got '{name}'")
            return None
        if len(raw) < len(unit) or raw[-len(unit):].lower() != unit:
            self.error(line, col, f"{key} requires a '{unit}' unit suffix, "
                                  f"got '{raw}'")
            return None
        value = self._number(raw[:-len(unit)])
        if value is None:
            self.error(line, col, f"invalid number '{raw[:-len(unit)]}' in {key}")
            return None
        return value

    def _expect_count(self, tokens, line, count: int, usage: str) -> bool:
        if len(tokens) - 1 == count:
            return True
        # point at the first surplus token, or at the keyword when short
        col = tokens[count + 1][1] if len(tokens) - 1 > count else tokens[0][1]
        self.error(line, col, f"usage: {usage}")
        return False

    def _optional_len(self, tokens, line) -> tuple[float | None, bool]:
        """Trailing ``len=<x>um`` attribute; returns (value, consumed)."""
        if tokens and tokens[-1][0].lower().startswith("len="):
            value = self._value_with_unit(tokens[-1], line, "len", "um")
            if value is None:
                return None, True
            if value < 0:
                self.error(line, tokens[-1][1], "len must be >= 0")
                return None, True
            return value, True
        return None, False

    # --- statement handlers --------------------------------------------

    def _stmt_rails(self, tokens, line):
        if not self._expect_count(tokens, line, 1, "rails <n>"):
            return
        if self.n_rails is not None:
            self.error(line, tokens[0][1], "duplicate rails declaration")
            return
        text, col = tokens[1]
        if not text.isdigit():
            self.error(line, col, f"rail count must be a positive integer, "
                                  f"got '{text}'")
            return
        count = int(text)
        if count < 1:
            self.error(line, col, "rail count must be >= 1")
            return
        if count > MAX_RAILS:
            self.error(line, col, f"rail count {count} exceeds the capacity "
                                  f"of {MAX_RAILS}")
            return
        self.n_rails = count

    def _stmt_segment(self, tokens, line):
        if not self._expect_count(tokens, line, 2, "segment <rail> <length>um"):
            return
        rail = self._rail(tokens[1], line)
        text, col = tokens[2]
        if len(text) < 2 or text[-2:].lower() != "um":
            self.error(line, col, f"segment length requires a 'um' suffix, "
                                  f"got '{text}'")
            return
        length = self._number(text[:-2])
        if length is None:
            self.error(line, col, f"invalid number '{text[:-2]}' in segment length")
            return
        if length < 0:
            self.error(line, col, "segment length must be >= 0")
            return
        if rail is None:
            return
        self.segments.append(Segment(rail, length, len(self.elements)))

    def _stmt_sep(self, tokens, line):
        if len(tokens) not in (3, 4):
            self.error(line, tokens[0][1], "usage: sep <rail> delay=<t>ps [empty]")
            return
        rail = self._rail(tokens[1], line)
        delay = self._value_with_unit(tokens[2], line, "delay", "ps")
        emits = True
        if len(tokens) == 4:
            text, col = tokens[3]
            if text.lower() != "empty":
                self.error(line, col, f"unexpected token '{text}' "
                                      f"(only 'empty' may follow the delay)")
                return
            emits = False
        if rail is None or delay is None:
            return
        if delay < 0:
            self.error(line, tokens[2][1], "delay must be >= 0")
            return
        if rail in self._source_rails:
            self.error(line, tokens[1][1], f"duplicate source for rail q{rail}")
            return
        self._source_rails.add(rail)
        self.sources.append(SepSource(rail, delay, emits))

    def _stmt_ps(self, tokens, line):
        length, consumed = self._optional_len(tokens, line)
        body = tokens[:-1] if consumed else tokens
        if not self._expect_count(body, line, 2, "ps <rail> phi=<x>rad [len=<x>um]"):
            return
        rail = self._rail(body[1], line)
        phi = self._value_with_unit(body[2], line, "phi", "rad")
        if rail is None or phi is None:
            return
        if not math.isfinite(phi):
            self.error(line, body[2][1], "phi must be finite")
            return
        if self.strict and not (0.0 < phi < math.pi):
            self.error(line, body[2][1],
                       f"phi {phi:g} outside the hardware range (0, pi)")
            return
        self.elements.append(PhaseShifter(rail, phi, length))

    def _coupler_rails(self, tokens, line) -> tuple[int, int] | None:
        rail_a = self._rail(tokens[1], line)
        rail_b = self._rail(tokens[2], line)
        if rail_a is None or rail_b is None:
            return None
        if rail_a == rail_b:
            self.error(line, tokens[2][1], "coupler rails must be distinct")
            return None
        return rail_a, rail_b

    def _stmt_bs(self, tokens, line):
        length, consumed = self._optional_len(tokens, line)
        body = tokens[:-1] if consumed else tokens
        if not self._expect_count(body, line, 4,
                                  "bs <railA> <railB> lc=<x>um lt=<x>um [len=<x>um]"):
            return
        rails = self._coupler_rails(body, line)
        lc = self._value_with_unit(body[3], line, "lc", "um")
        lt = self._value_with_unit(body[4], line, "lt", "um")
        if rails is None or lc is None or lt is None:
            return
        if lc < 0:
            self.error(line, body[3][1], "lc must be >= 0")
            return
        if lt <= 0:
            self.error(line, body[4][1], "lt must be > 0")
            return
        self.elements.append(WaveguideCoupler(rails, lc, lt, length))

    def _stmt_cc(self, tokens, line):
        length, consumed = self._optional_len(tokens, line)
        body = tokens[:-1] if consumed else tokens
        if not self._expect_count(body, line, 3,
                                  "cc <railA> <railB> chit=<x>rad [len=<x>um]"):
            return
        rails = self._coupler_rails(body, line)
        chi_t = self._value_with_unit(body[3], line, "chit", "rad")
        if rails is None or chi_t is None:
            return
        if not math.isfinite(chi_t):
            self.error(line, body[3][1], "chit must be finite")
            return
        self.elements.append(CoulombCoupler(rails, chi_t, length))

    def _stmt_macro(self, tokens, line, name: str, n_args: int, usage: str):
        if not self._expect_count(tokens, line, n_args, usage):
            return
        rails = []
        for tok in tokens[1:]:
            rail = self._rail(tok, line)
            if rail is None:
                return
            rails.append(rail)
        if len(set(rails)) != len(rails):
            self.error(line, tokens[1][1], "macro rails must be distinct")
            return
        self.elements.append(CompositeGate(name, tuple(rails)))

    def _stmt_dualrail(self, tokens, line):
        if not self._expect_count(tokens, line, 3, "dualrail <name> <rail0> <rail1>"):
            return
        name, col = tokens[1]
        if not _NAME_RE.fullmatch(name):
            self.error(line, col, f"invalid register name '{name}'")
            return
        rail0 = self._rail(tokens[2], line)
        rail1 = self._rail(tokens[3], line)
        if rail0 is None or rail1 is None:
            return
        if rail0 == rail1:
            self.error(line, tokens[3][1], "register rails must be distinct")
            return
        if any(n == name for n, _ in self.registers):
            self.error(line, col, f"duplicate register name '{name}'")
            return
        for rail, tok in ((rail0, tokens[2]), (rail1, tokens[3])):
            if rail in self._register_rails:
                self.error(line, tok[1],
                           f"rail q{rail} already used by register "
                           f"'{self._register_rails[rail]}'")
                return
        self._register_rails[rail0] = name
        self._register_rails[rail1] = name
        self.registers.append((name, (rail0, rail1)))

    def _stmt_set(self, tokens, line):
        if not self._expect_count(tokens, line, 1, "set <rail>"):
            return
        rail = self._rail(tokens[1], line)
        if rail is None:
            return
        if rail in self.detectors:
            self.warning(line, tokens[1][1], f"duplicate detector on rail q{rail}")
            return
        self.detectors.append(rail)

    # --- driver ---------------------------------------------------------

    _HANDLERS = {
        "rails": "_stmt_rails",
        "segment": "_stmt_segment",
        "sep": "_stmt_sep",
        "ps": "_stmt_ps",
        "bs": "_stmt_bs",
        "cc": "_stmt_cc",
        "dualrail": "_stmt_dualrail",
        "set": "_stmt_set",
    }

    def feed(self, text: str) -> None:
        last_line = 1
        for line_no, raw in enumerate(text.splitlines(), start=1):
            last_line = line_no
            body = raw.split("#", 1)[0]
            tokens = [(m.group(0), m.start() + 1)
                      for m in re.finditer(r"\S+", body)]
            if not tokens:
                continue
            keyword = tokens[0][0].lower()
            if self.n_rails is None and keyword != "rails":
                self.error(line_no, tokens[0][1],
                           "no rails declared (the first statement must be "
                           "'rails <n>')")
                continue
            if keyword == "hadamard":
                self._stmt_macro(tokens, line_no, "hadamard", 2,
                                 "hadamard <rail0> <rail1>")
            elif keyword == "fredkin":
                self._stmt_macro(tokens, line_no, "fredkin", 3,
                                 "fredkin <control> <t0> <t1>")
            elif keyword in self._HANDLERS:
                getattr(self, self._HANDLERS[keyword])(tokens, line_no)
            else:
                self.error(line_no, tokens[0][1],
                           f"unknown statement '{tokens[0][0]}'")
        if self.n_rails is None:
            self.error(last_line, 1, "no rails declared")

    def result(self) -> ParseResult:
        if any(d.severity == "error" for d in self.diagnostics):
            return ParseResult(None, self.diagnostics)
        circuit = Circuit(
            n_rails=self.n_rails,
            elements=self.elements,
            segments=self.segments,
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
    for position, group in enumerate(circuit.segment_groups()):
        for seg in group:
            lines.append(f"segment q{seg.rail} {_fmt(seg.length)}um")
        if position < len(circuit.elements):
            lines.append(_element_line(circuit.elements[position]))
    for rail in circuit.detectors:
        lines.append(f"set q{rail}")
    return "\n".join(lines) + "\n"


def expand_composites(circuit: Circuit) -> Circuit:
    """Replace macro elements by their primitive synthesis.

    Segment positions are remapped so wire declared before a macro stays
    before its first primitive element.  Circuits without macros come back
    structurally unchanged.
    """
    new_elements: list[GateElement] = []
    offsets: list[int] = []
    for element in circuit.elements:
        offsets.append(len(new_elements))
        if isinstance(element, CompositeGate):
            if element.name == "hadamard":
                new_elements.extend(_dualrail.logical_hadamard(element.rails))
            elif element.name == "fredkin":
                control, t0, t1 = element.rails
                new_elements.extend(_dualrail.fredkin_circuit(control, (t0, t1)))
            else:  # constructor blocks this; defensive for hand-built objects
                raise NetlistError([ParseDiagnostic(
                    1, 1, f"unknown macro '{element.name}'")])
        else:
            new_elements.append(element)
    offsets.append(len(new_elements))
    new_segments = [Segment(s.rail, s.length, offsets[position])
                    for position, group in enumerate(circuit.segment_groups())
                    for s in group]
    return Circuit(
        n_rails=circuit.n_rails,
        elements=new_elements,
        segments=new_segments,
        sources=list(circuit.sources),
        detectors=list(circuit.detectors),
        registers=list(circuit.registers),
    )

