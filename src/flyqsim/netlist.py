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
``Circuit``'s constructor validates once and stores with its wire in
netlist order; the wire is grouped by position only when read.  Each
statement handler first reads the canonical spelling, the one ``serialize``
writes, inline: a rail is a lookup in the ``q<i>`` table, and a number is
the word with its fixed ``key=`` and unit sliced off, read by one ``float``
call with the finite and no-``_`` test.  An element's own facts (distinct
rails, finite angles, lengths in range) are checked once, by its
constructor; a ``ValueError`` from it, like any other spelling (``PHI=``,
``1UM``, ``q01``, ``len=``), sends the line to the general word helpers,
which read it again and write every diagnostic.  The validation walk
also records whether the circuit holds a macro, and every stage reads
``Circuit.expanded``, the primitive form: the circuit itself without a
macro, else its expansion, derived on first use without a second walk, for
a parsed circuit and a hand-built one alike.  There is one parsing mode:
a ``ps`` holds any finite phase, and whether the dots reach it is
``PhaseShifter.hardware_realizable``, read per element over
``Circuit.expanded``, which holds the macros' phases too.  A rail outside
the register is a diagnostic here and a ``ValueError`` from ``Circuit``;
only elements handed to ``gates.apply_stretch`` directly meet the ``fock``
index helpers' rail check instead, which may raise after later elements
of the stretch have changed the amplitudes.  ``serialize`` emits a
canonical form that parses back to an equal circuit, and that it writes
back byte for byte; it picks each element's line writer by its type.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, fields
from functools import cached_property
from itertools import accumulate, chain, compress, count, groupby, repeat
from math import inf
from operator import attrgetter, itemgetter
from typing import NamedTuple

from .fock import MAX_RAILS, check_n_rails, require_float, require_integer
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
    diagnostic when it fails.  The statement handlers make the same test
    inline on the canonical spelling: a ``float`` call on a word without
    ``_``, whose value the range test or the element's constructor refuses
    unless it is finite.
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

    Elements must be of the types ``serialize`` writes, else ``TypeError``.
    Rail counts, rails and segment positions must be integers in range.  The
    constructor stores the container fields as tuples, ``segments`` in the
    canonical netlist order: sorted stably by position, so each position's
    wire keeps its declaration order.  ``segments`` is the one stored form
    of the wire; ``wire``, the segments grouped by position, and
    ``expanded`` are derived from the fields on first read, and equality
    ignores them.

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
    _macros: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # the one validation point: every other stage indexes rails and reads
        # lengths without checking them again
        for name in ("elements", "sources", "detectors"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        n_rails = require_integer(self.n_rails, "rail count")
        check_n_rails(n_rails)
        elements = self.elements
        # the element types are those serialize writes
        kinds = set(map(type, elements))
        if not kinds <= _ELEMENT_LINES.keys():
            for index, element in enumerate(elements):
                if type(element) not in _ELEMENT_LINES:
                    raise TypeError(f"element {index} is not a gate element: "
                                    f"{element!r}")
        # integers: each element checks its own rails; their range is checked
        # here, over the set of rails in use, and element by element only to
        # name the first element outside it
        rails = set(chain.from_iterable(map(attrgetter("rails"), elements)))
        if rails and not (0 <= min(rails) and max(rails) < n_rails):
            for index, element in enumerate(elements):
                for rail in element.rails:
                    if not 0 <= rail < n_rails:
                        raise ValueError(
                            f"element {index} ({element.keyword}) rail "
                            f"{rail} outside [0, {n_rails})")
        macros = CompositeGate in kinds
        n_positions = len(elements) + 1
        segments = []
        for seg in self.segments:
            if type(seg) is not Segment:
                seg = Segment._make(seg)
            rail, length, at = seg
            if type(at) is not int:
                require_integer(at, "segment position")
            if not 0 <= at < n_positions:
                raise ValueError(f"segment position {at} outside "
                                 f"[0, {len(elements)}]: {seg!r}")
            if type(rail) is not int:
                require_integer(rail, "segment rail")
            if not 0 <= rail < n_rails:
                raise ValueError(f"segment rail {rail} outside "
                                 f"[0, {n_rails}): {seg!r}")
            if type(length) is not float:
                length = require_float(length, "segment length")
                seg = Segment(rail, length, at)
            if not 0.0 <= length < inf:  # also refuses nan
                raise ValueError(f"segment length must be finite and >= 0: "
                                 f"{seg!r}")
            segments.append(seg)
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
        # netlist order: a stable sort keeps each position's declaration order
        segments.sort(key=itemgetter(2))
        object.__setattr__(self, "segments", tuple(segments))
        object.__setattr__(self, "registers", tuple(registers))
        object.__setattr__(self, "_macros", macros)

    @cached_property
    def wire(self) -> tuple:
        """``wire[p]``: the segments placed before ``elements[p]``, in
        declaration order; ``wire[-1]`` is the trailing wire and ``()``
        stands at a position without wire.  Grouped from ``segments`` on
        first read and kept."""
        wire = [()] * (len(self.elements) + 1)
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
        """This circuit with each macro replaced by its primitives, without
        a second validation walk.

        A macro builds its primitives on its own, validated rails.  Each
        segment moves to the expanded position of the element it preceded,
        so wire declared before a macro stays before its first primitive,
        and the positions stay in netlist order.  The result holds no macro,
        so its own ``expanded`` is itself and no reference leads back here.
        Python steps run per macro; per element and per segment the work is
        done by ``map``, ``zip`` and ``accumulate``.
        """
        declared = self.elements
        sizes = [1] * len(declared)  # expanded elements per declared element
        elements: list[GateElement] = []
        start = 0
        for index in compress(count(), map(isinstance, declared,
                                           repeat(CompositeGate))):
            macro = declared[index]
            primitives = macro_elements(macro.name, macro.rails)
            sizes[index] = len(primitives)
            elements += declared[start:index]
            elements += primitives
            start = index + 1
        elements += declared[start:]
        offsets = list(accumulate(sizes, initial=0))
        declared_wire = self.segments
        segments = _segments(zip(
            map(itemgetter(0), declared_wire), map(itemgetter(1), declared_wire),
            map(offsets.__getitem__, map(itemgetter(2), declared_wire))))
        derived = object.__new__(Circuit)
        # the fields only: a wire already read here holds declared positions
        derived.__dict__.update(
            {f.name: getattr(self, f.name) for f in fields(Circuit)},
            elements=tuple(elements), segments=tuple(segments), _macros=False)
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
    keywords included.  A handler reads the canonical spelling inline (the
    ``q<i>`` table, one ``float`` call per number) and hands the values to
    the element's constructor, which checks them.  Only when that read
    fails do ``_rail``, ``_split_len``, ``_value_with_unit`` and ``_number``
    accept the other spellings (``PHI=``, ``1UM``, ``q01``, ``len=``) or
    write the diagnostic.  A diagnostic points at a word by index; the
    word's column is computed only then, by ``_column``.
    """

    def __init__(self):
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

        The handlers read the canonical spelling inline, so this runs for
        ``sep`` delays, ``len=`` and the other spellings, and writes the
        diagnostic.
        """
        text = words[index]
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
        # the canonical spelling: segment q<i> <x>um
        if len(words) == 3:
            rail = self._rail_names.get(words[1])
            text = words[2]
            if rail is not None and text[-2:] == "um" and "_" not in text:
                try:
                    length = float(text[:-2])
                except ValueError:
                    pass
                else:
                    if 0.0 <= length < inf:
                        self._wire_rails.append(rail)
                        self._wire_lengths.append(length)
                        self._wire_positions.append(len(self.elements))
                        return
        else:
            self._expect_count(words, 2, "segment <rail> <length>um")
            return
        rail = self._rail(words, 1)
        text = words[2]
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
        # the canonical spelling: ps q<i> phi=<x>rad
        text = words[-1]
        if (len(words) == 3 and text[:4] == "phi=" and text[-3:] == "rad"
                and "_" not in text):
            try:  # the constructor checks the rail and that phi is finite
                element = PhaseShifter(self._rail_names.get(words[1]),
                                       float(text[4:-3]))
            except ValueError:
                pass  # diagnosed below
            else:
                self.elements.append(element)
                return
        words, length = self._split_len(words)
        if len(words) != 3:
            self._expect_count(words, 2, "ps <rail> phi=<x>rad [len=<x>um]")
            return
        rail = self._rail(words, 1)
        phi = self._value_with_unit(words, 2, "phi", "rad")
        if rail is None or phi is None:
            return
        self.elements.append(PhaseShifter(rail, phi, length))

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
        # the canonical spelling: bs q<a> q<b> lc=<x>um lt=<x>um
        if len(words) == 5:
            lc, lt = words[3], words[4]
            if (lc[:3] == "lc=" and lc[-2:] == "um" and "_" not in lc
                    and lt[:3] == "lt=" and lt[-2:] == "um" and "_" not in lt):
                names = self._rail_names
                try:  # the constructor checks the rails and both lengths
                    element = WaveguideCoupler(
                        (names.get(words[1]), names.get(words[2])),
                        float(lc[3:-2]), float(lt[3:-2]))
                except ValueError:
                    pass  # diagnosed below
                else:
                    self.elements.append(element)
                    return
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
        # the canonical spelling: cc q<a> q<b> chit=<x>rad
        text = words[-1]
        if (len(words) == 4 and text[:5] == "chit=" and text[-3:] == "rad"
                and "_" not in text):
            names = self._rail_names
            try:  # the constructor checks the rails and that chi_t is finite
                element = CoulombCoupler(
                    (names.get(words[1]), names.get(words[2])),
                    float(text[5:-3]))
            except ValueError:
                pass  # diagnosed below
            else:
                self.elements.append(element)
                return
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
        # the canonical spelling: distinct q<i> rails, one per parameter,
        # which the constructor checks
        try:
            element = CompositeGate(name, tuple(map(self._rail_names.get,
                                                    words[1:])))
        except ValueError:
            pass  # diagnosed below
        else:
            self.elements.append(element)
            return
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
            keyword = words[0]
            handler = handlers.get(keyword)
            if handler is None:  # keywords are case-insensitive
                keyword = keyword.lower()
                handler = handlers.get(keyword)
            if self.n_rails is None and keyword != "rails":
                self.error(0, "no rails declared (the first statement must be "
                              "'rails <n>')")
                continue
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


def parse(source_text: str) -> ParseResult:
    """Parse netlist text; total, never raises on malformed input."""
    parser = _LineParser()
    try:
        text = str(source_text)
    except Exception:  # pragma: no cover - str() on str input cannot fail
        return ParseResult(None, [ParseDiagnostic(1, 1, "unreadable input")])
    parser.feed(text)
    return parser.result()


def parse_circuit(source_text: str) -> Circuit:
    """Parse and raise ``NetlistError`` on any error diagnostic."""
    result = parse(source_text)
    if not result.ok:
        raise NetlistError(result.errors())
    return result.circuit


# Netlist lines by element type.  Each takes the element and the rail-name
# table and writes every number with ``!r``, the shortest float literal that
# round-trips exactly: every element field is stored as a ``float``.


def _ps_line(element: PhaseShifter, q) -> str:
    line = f"ps {q[element.rail]} phi={element.phi!r}rad"
    return line if element.length is None else f"{line} len={element.length!r}um"


def _bs_line(element: WaveguideCoupler, q) -> str:
    a, b = element.rails
    line = (f"bs {q[a]} {q[b]} lc={element.coupling_length!r}um "
            f"lt={element.transfer_length!r}um")
    return line if element.length is None else f"{line} len={element.length!r}um"


def _cc_line(element: CoulombCoupler, q) -> str:
    a, b = element.rails
    line = f"cc {q[a]} {q[b]} chit={element.chi_t!r}rad"
    return line if element.length is None else f"{line} len={element.length!r}um"


def _macro_line(element: CompositeGate, q) -> str:
    return " ".join([element.name, *[q[rail] for rail in element.rails]])


_ELEMENT_LINES = {PhaseShifter: _ps_line, WaveguideCoupler: _bs_line,
                  CoulombCoupler: _cc_line, CompositeGate: _macro_line}


def serialize(circuit: Circuit) -> str:
    """Canonical netlist text; ``parse(serialize(c))`` equals ``c``.

    Each element's line is written by ``_ELEMENT_LINES[type(element)]``,
    with the rail names read from one ``q<i>`` table.
    """
    q = [f"q{rail}" for rail in range(circuit.n_rails)]
    lines = [f"rails {circuit.n_rails}"]
    for src in circuit.sources:
        empty = "" if src.emits else " empty"
        lines.append(f"sep {q[src.rail]} delay={src.emission_delay!r}ps{empty}")
    for name, (rail0, rail1) in circuit.registers:
        lines.append(f"dualrail {name} {q[rail0]} {q[rail1]}")
    element_lines = _ELEMENT_LINES
    for group, element in zip(circuit.wire, circuit.elements):
        for rail, length, _ in group:
            lines.append(f"segment {q[rail]} {length!r}um")
        lines.append(element_lines[type(element)](element, q))
    for rail, length, _ in circuit.wire[-1]:
        lines.append(f"segment {q[rail]} {length!r}um")
    for rail in circuit.detectors:
        lines.append(f"set {q[rail]}")
    lines.append("")
    return "\n".join(lines)


def expand_composites(circuit: Circuit) -> Circuit:
    """``circuit.expanded``: the circuit with its macros replaced by their
    primitive synthesis, or the circuit itself when it has none."""
    return circuit.expanded
