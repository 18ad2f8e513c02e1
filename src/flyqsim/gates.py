"""Gate primitives for single-electron rail circuits.

Three physical elements are modeled:

* ``PhaseShifter``: a biased quantum dot in one rail.  The occupied
  component of that rail gains exp(i*phi); an empty rail is untouched.
* ``WaveguideCoupler``: two parallel waveguides with evanescent coupling
  over an interaction length ``coupling_length`` (um).  An electron
  oscillates between the rails with spatial period twice the
  ``transfer_length``; the matrix convention is

      [[cos(theta), i sin(theta)], [i sin(theta), cos(theta)]],
      theta = (pi/2) * coupling_length / transfer_length,

  so coupling_length = transfer_length gives complete transfer (|10> to
  i|01>) and half the transfer length gives a balanced 50/50 splitter.
  The i phase on the crossed amplitude is a convention choice; every
  composite that is sensitive to it compensates with explicit phase
  shifters.  A tunnelling-junction splitter is represented by the same
  matrix.
* ``CoulombCoupler``: two co-propagating rails interacting electrostatically
  for an angle ``chi_t`` = coupling constant x interaction time.  Only the
  doubly occupied component is affected, gaining exp(-2i*chi_t); the gate
  conserves electron number (mutual phase modulation, nothing else).

Each element owns its netlist ``keyword``, its ``rails`` and, for the
primitives, its ``footprint``: the um it adds to each of its rails, an
explicit ``length`` else a waveguide coupler's coupling length else 0.  A
macro has no single footprint and no kernel: every stage reads a circuit's
primitive form, ``netlist.Circuit.expanded``.

A circuit holds its elements compiled once, as ``ElementColumns``: one row
per element, a kind code (``PS``, ``BS``, ``CC``, then one per macro), the
rails and the numbers in integer and float columns.  The columns are the
only form a circuit keeps: the stages read them and build no element, and
the element objects are built from the rows only when a caller asks for
them, for a hand-built circuit too.  ``ElementColumns.footprints`` applies
the footprint rule to every row at once, and ``ElementColumns.expanded``
replaces every macro at once by the rows of its synthesis, renamed onto its
rails.

Netlist macros (``CompositeGate``) expand to these primitives.  ``MACROS``
is the one macro table: per keyword, the rail parameters and the synthesis.

* ``logical_hadamard``: a balanced waveguide coupler dressed with two fixed
  phase shifters so the pair subspace transforms exactly by the Hadamard
  matrix (the bare coupler alone differs from it by i phases).
* ``fredkin_circuit``: a controlled swap of a target pair, built as an
  interferometer of two balanced couplers whose internal arm phase is
  toggled by a Coulomb coupler to the control rail.  The fixed interior
  phases were derived against the dense oracle: with them the composite is
  the identity on the target pair when the control rail is empty, and a
  swap (up to a global phase) when it is occupied.

Both syntheses use phases outside the demonstrated dot-bias range (0, pi):
the Hadamard trims are -pi/2 and the Fredkin arm bias is pi.
``PhaseShifter.hardware_realizable`` reports this per element, read over a
circuit's primitive form; the parser accepts any finite phase.

The elements act through one kernel, ``apply_stretch``, on sector
amplitudes and on single-particle orbitals alike: orbitals are columns of
the one-electron sector.  It walks the columns of a stretch of primitives
once, holds each phase shifter until a coupler on its rail needs it, folds it into that
coupler's 2x2 matrix and hands the couplers, with the Coulomb phases in
their places between them, to ``fock.apply_mode_unitaries`` a block at a
time.  ``apply_element_batch`` is that kernel on a one-element stretch.
The kernel compares no rail: the ``fock`` index helpers refuse a rail
outside the register, so a bad rail may raise after later elements of the
stretch have changed the amplitudes.

The brute-force oracles that check this kernel, dense ``2^n x 2^n``
matrices built from ladder operators, live in the test suite
(``tests/oracles.py``), since no run calls them.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import chain
from math import isfinite
from typing import ClassVar, Union

import numpy as np

from . import fock

DEFAULT_TRANSFER_LENGTH_UM = 0.28
FIFTY_FIFTY_COUPLING_UM = DEFAULT_TRANSFER_LENGTH_UM / 2

HARDWARE_PHASE_RANGE = (0.0, math.pi)


def _rail_pair(rails) -> tuple:
    """``rails`` as a tuple of two distinct integer rails, else ``ValueError``."""
    rails = tuple(rails)
    for rail in rails:
        fock.require_integer(rail, "element rail")
    if len(rails) != 2 or rails[0] == rails[1]:
        raise ValueError(f"coupler rails must be a distinct pair, got {rails}")
    return rails


def _checked_length(length) -> float:
    """An element's explicit ``len``, checked and stored as a ``float``."""
    length = fock.require_float(length, "element length")
    if not (isfinite(length) and length >= 0.0):
        raise ValueError(f"element length must be finite and >= 0, got {length}")
    return length


# The element classes are frozen dataclasses with their own ``__init__``:
# it checks each field once, by ``fock.require_integer`` or
# ``fock.require_float``, and stores each checked value once with
# ``object.__setattr__``, as a generated frozen ``__init__`` does (writing
# ``__dict__`` instead would build a dict per element, which slows every
# later attribute read).
# ``dataclasses.replace`` calls the same ``__init__``.
_set_field = object.__setattr__


@dataclass(frozen=True, init=False)
class PhaseShifter:
    """Quantum-dot phase shifter on one rail; ``phi`` in radians."""

    keyword: ClassVar[str] = "ps"
    rail: int
    phi: float
    length: float | None = None
    # ``(rail,)``, built once, as every element states its ``rails``
    rails: tuple[int] = field(init=False, repr=False, compare=False)

    def __init__(self, rail: int, phi: float, length: float | None = None):
        fock.require_integer(rail, "element rail")
        phi = fock.require_float(phi, "phi")
        if not isfinite(phi):
            raise ValueError(f"phi must be finite, got {phi}")
        if length is not None:
            length = _checked_length(length)
        _set_field(self, "rail", rail)
        _set_field(self, "phi", phi)
        _set_field(self, "length", length)
        _set_field(self, "rails", (rail,))

    @property
    def footprint(self) -> float:
        return 0.0 if self.length is None else self.length

    @property
    def hardware_realizable(self) -> bool:
        """True when phi lies in the demonstrated dot-bias range (0, pi)."""
        lo, hi = HARDWARE_PHASE_RANGE
        return lo < self.phi < hi


@dataclass(frozen=True, init=False)
class WaveguideCoupler:
    """Evanescent coupler between two rails; lengths in um."""

    keyword: ClassVar[str] = "bs"
    rails: tuple[int, int]
    coupling_length: float
    transfer_length: float = DEFAULT_TRANSFER_LENGTH_UM
    length: float | None = None

    def __init__(self, rails: tuple[int, int], coupling_length: float,
                 transfer_length: float = DEFAULT_TRANSFER_LENGTH_UM,
                 length: float | None = None):
        rails = _rail_pair(rails)
        coupling_length = fock.require_float(coupling_length, "coupling_length")
        if not (isfinite(coupling_length) and coupling_length >= 0.0):
            raise ValueError(f"coupling_length must be >= 0, "
                             f"got {coupling_length}")
        transfer_length = fock.require_float(transfer_length, "transfer_length")
        if not (isfinite(transfer_length) and transfer_length > 0.0):
            raise ValueError(f"transfer_length must be > 0, "
                             f"got {transfer_length}")
        if length is not None:
            length = _checked_length(length)
        _set_field(self, "rails", rails)
        _set_field(self, "coupling_length", coupling_length)
        _set_field(self, "transfer_length", transfer_length)
        _set_field(self, "length", length)

    @property
    def footprint(self) -> float:
        return self.coupling_length if self.length is None else self.length


@dataclass(frozen=True, init=False)
class CoulombCoupler:
    """Mutual phase modulation between two rails; ``chi_t`` in radians."""

    keyword: ClassVar[str] = "cc"
    rails: tuple[int, int]
    chi_t: float
    length: float | None = None

    def __init__(self, rails: tuple[int, int], chi_t: float,
                 length: float | None = None):
        rails = _rail_pair(rails)
        chi_t = fock.require_float(chi_t, "chi_t")
        if not isfinite(chi_t):
            raise ValueError(f"chi_t must be finite, got {chi_t}")
        if length is not None:
            length = _checked_length(length)
        _set_field(self, "rails", rails)
        _set_field(self, "chi_t", chi_t)
        _set_field(self, "length", length)

    @property
    def footprint(self) -> float:
        return 0.0 if self.length is None else self.length


@dataclass(frozen=True, init=False)
class CompositeGate:
    """Netlist macro placeholder; ``netlist.Circuit.expanded`` replaces it by
    its primitives."""

    name: str
    rails: tuple[int, ...]

    def __init__(self, name: str, rails: tuple[int, ...]):
        rails = tuple(rails)
        for rail in rails:
            fock.require_integer(rail, "element rail")
        spec = MACROS.get(name)
        if spec is None:
            raise ValueError(f"unknown composite gate '{name}'")
        expected = len(spec[0])
        if len(rails) != expected:
            raise ValueError(f"composite '{name}' takes {expected} rails, "
                             f"got {len(rails)}")
        if len(set(rails)) != len(rails):
            raise ValueError(f"composite rails must be distinct, got {rails}")
        _set_field(self, "name", name)
        _set_field(self, "rails", rails)

    @property
    def keyword(self) -> str:
        return self.name


# phase shifter settings derived against the dense oracle (see tests)
HADAMARD_TRIM_PHASE = -math.pi / 2
FREDKIN_COMPENSATION_PHASE = math.pi / 2
FREDKIN_ARM_BIAS_PHASE = math.pi
FREDKIN_CHI_T = math.pi / 2


def logical_hadamard(pair, transfer_length: float = DEFAULT_TRANSFER_LENGTH_UM) -> list[GateElement]:
    """Balanced coupler plus trim phases: exactly Hadamard on the pair.

    The 50/50 coupler maps the single-electron subspace by
    (1/sqrt2)[[1, i], [i, 1]]; a -pi/2 shift on the 1-rail before and after
    turns that into (1/sqrt2)[[1, 1], [1, -1]] with no leftover global
    phase.  Applying the list twice is the identity.
    """
    rail0, rail1 = pair
    if rail0 == rail1:
        raise ValueError(f"pair rails must be distinct, got {pair}")
    return [
        PhaseShifter(rail1, HADAMARD_TRIM_PHASE),
        WaveguideCoupler((rail0, rail1), transfer_length / 2.0, transfer_length),
        PhaseShifter(rail1, HADAMARD_TRIM_PHASE),
    ]


def fredkin_circuit(control_rail: int, target_pair,
                    transfer_length: float = DEFAULT_TRANSFER_LENGTH_UM) -> list[GateElement]:
    """Controlled swap of ``target_pair``, toggled by ``control_rail``.

    Interferometer layout: balanced coupler on the targets, a pi bias on the
    first target arm, a Coulomb coupler (chi_t = pi/2, so the joint occupied
    component flips sign) between the control rail and that arm, and a
    second balanced coupler.  The pi/2 shifters fore and aft cancel the
    residual i phases so that control empty gives the identity exactly and
    control occupied gives a swap up to a global phase.
    """
    target0, target1 = target_pair
    rails = (control_rail, target0, target1)
    if len(set(rails)) != 3:
        raise ValueError(f"control and target rails must be distinct, got {rails}")
    half = transfer_length / 2.0
    return [
        PhaseShifter(target0, FREDKIN_COMPENSATION_PHASE),
        WaveguideCoupler((target0, target1), half, transfer_length),
        PhaseShifter(target0, FREDKIN_ARM_BIAS_PHASE),
        CoulombCoupler((control_rail, target0), FREDKIN_CHI_T),
        WaveguideCoupler((target0, target1), half, transfer_length),
        PhaseShifter(target0, FREDKIN_COMPENSATION_PHASE),
    ]


# The one macro table: keyword -> (rail parameter names, synthesis taking the
# rails tuple).  ``CompositeGate`` checks its arity here, the netlist parser
# dispatches on it and derives its usage strings from the parameter names,
# and ``ElementColumns.expanded`` splices each synthesis's rows, taken once
# from ``macro_elements`` into ``_TEMPLATES``.
MACROS = {
    "hadamard": (("rail0", "rail1"), logical_hadamard),
    "fredkin": (("control", "t0", "t1"),
                lambda rails: fredkin_circuit(rails[0], rails[1:])),
}


def macro_elements(name: str, rails: tuple) -> tuple:
    """Primitive synthesis of macro ``name`` on ``rails``."""
    return tuple(MACROS[name][1](rails))


GateElement = Union[PhaseShifter, WaveguideCoupler, CoulombCoupler, CompositeGate]

# Kind codes of the element columns: the primitives, then the macros in
# MACROS order.  KEYWORDS[kind] is a kind's netlist keyword and ARITY[kind]
# its number of rails.
PS, BS, CC = 0, 1, 2
KEYWORDS = ("ps", "bs", "cc", *MACROS)
ARITY = (1, 2, 2, *(len(params) for params, _ in MACROS.values()))
_ARITY = np.array(ARITY)
# an element's numbers in the columns: no explicit len is NaN
_NUMBERS = {
    PhaseShifter: lambda e: (e.phi, 0.0, e.length),
    WaveguideCoupler: lambda e: (e.coupling_length, e.transfer_length, e.length),
    CoulombCoupler: lambda e: (e.chi_t, 0.0, e.length),
    CompositeGate: lambda e: (0.0, 0.0, None),
}


def float_table(rows: list, width: int) -> np.ndarray:
    """A flat list of numbers as a ``(-1, width)`` float64 table.

    An integer past the float range is first clipped to +-2^62, where the
    callers clip their integer columns too: a rail or a position that large
    stays out of range, and is refused as such.
    """
    try:
        return np.array(rows, dtype=np.float64).reshape(-1, width)
    except OverflowError:
        return float_table([min(max(x, -2**62), 2**62) if isinstance(x, int)
                            else x for x in rows], width)


class ElementColumns(Sequence):
    """Gate elements held as columns, one row each: the compiled form of a
    circuit's elements, which every stage reads.

    ``ints`` is an ``(rows, 4)`` integer array: the kind code, then the
    rails padded to three by repeating the last (``(r, r, r)`` for a phase
    shifter, ``(a, b, b)`` for two rails), so column 1 holds every first
    rail and column 3 every last.  ``floats`` is ``(rows, 3)`` float64:
    phi, the coupling length or chi_t; a waveguide coupler's transfer
    length, else 0; the explicit ``len``, NaN when there is none.  A
    macro's numbers are ``0, 0, NaN``.  The other modules read the layout
    through ``kinds``, every row's kind code, ``end_rails`` and
    ``footprints``.

    Indexing builds one row's element and slicing keeps columns, so
    ``tuple(columns)`` is every row as a new element; the columns keep no
    element object.
    """

    def __init__(self, ints: np.ndarray, floats: np.ndarray):
        self.ints, self.floats = ints, floats
        self.kinds = ints[:, 0]

    @classmethod
    def of_rows(cls, rows: list) -> ElementColumns:
        """The columns of a flat list of rows of seven numbers: the kind
        code, the three padded rails and the three numbers."""
        table = float_table(rows, 7)
        # clipped, a rail past the integer range stays out of range
        return cls(table[:, :4].clip(-2.0**62, 2.0**62).astype(np.intp), table[:, 4:])

    @classmethod
    def of(cls, elements) -> ElementColumns:
        """The columns of gate ``elements``; ``TypeError`` names the first
        object that is not a gate element."""
        rows = []
        for index, element in enumerate(elements):
            numbers = _NUMBERS.get(type(element))
            if numbers is None:
                raise TypeError(f"element {index} is not a gate element: {element!r}")
            rails = element.rails
            rows += (KEYWORDS.index(element.keyword), rails[0], rails[:2][-1],
                     rails[-1], *numbers(element))
        return cls.of_rows(rows)

    def __len__(self) -> int:
        return len(self.ints)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return ElementColumns(self.ints[index], self.floats[index])
        kind, rail0, rail1, rail2 = self.ints[index].tolist()
        number, transfer, length = self.floats[index].tolist()
        length = None if math.isnan(length) else length
        if kind == PS:
            return PhaseShifter(rail0, number, length)
        if kind == BS:
            return WaveguideCoupler((rail0, rail1), number, transfer, length)
        if kind == CC:
            return CoulombCoupler((rail0, rail1), number, length)
        return CompositeGate(KEYWORDS[kind], (rail0, rail1, rail2)[:ARITY[kind]])

    def end_rails(self) -> np.ndarray:
        """``(2, rows)`` array of every row's first and last rail: a one-rail
        row repeats its rail.  C-ordered, so that what is gathered with it is
        C-ordered too."""
        return self.ints[:, 1::2].T.copy()

    def footprints(self) -> np.ndarray:
        """Every row's ``footprint``, as its element states it: an explicit
        ``len``, else a waveguide coupler's coupling length, else 0."""
        number, length = self.floats[:, 0], self.floats[:, 2]
        return np.where(np.isnan(length),
                        np.where(self.kinds == BS, number, 0.0), length)

    def refused(self, n_rails: int) -> np.ndarray:
        """Mask of the rows that an element constructor would refuse or
        whose rails lie outside ``[0, n_rails)``.

        A row needs distinct rails and finite numbers; a waveguide coupler
        needs a coupling length ``>= 0`` and a transfer length ``> 0``.  An
        explicit length is checked where it is read: by the parser's general
        path and by the element constructors.  Few array operations, as a
        short circuit pays for each.
        """
        kind, rails, (number, transfer, _) = self.kinds, self.ints[:, 1:], self.floats.T
        # a row's padded rails hold as many distinct rails as its kind has,
        # and a negative rail reads as a large unsigned one
        distinct = (1 + (rails[:, 0] != rails[:, 1])
                    + ((rails[:, 2] != rails[:, 0]) & (rails[:, 2] != rails[:, 1])))
        ok = (distinct == _ARITY[kind]) & (rails.view(np.uintp) < n_rails).all(1)
        ok &= np.isfinite(number) & np.isfinite(transfer)
        ok &= (kind != BS) | ((number >= 0.0) & (transfer > 0.0))
        return ~ok

    def expanded(self) -> tuple[ElementColumns, np.ndarray]:
        """These rows with each macro replaced by its primitives, and the
        offsets: row ``i`` becomes the expanded rows from ``offsets[i]``,
        and ``offsets[-1]`` is the expanded length.

        A macro's primitives are its synthesis's rows in ``_TEMPLATES``,
        their rails ``0..k-1`` renamed to the macro's ``k`` rails, for every
        macro at once: each expanded row is gathered from its source row
        or, for a macro, from its template row.
        """
        sizes = _SIZE[self.kinds]
        offsets = np.zeros(len(self) + 1, dtype=np.intp)
        sizes.cumsum(out=offsets[1:])
        rows = np.arange(len(self)).repeat(sizes)  # each expanded row's own
        ints, floats = self.ints[rows], self.floats[rows]
        macro = (ints[:, 0] > CC).nonzero()[0]
        at = _FIRST[ints[macro, 0]] + macro - offsets[rows[macro]]
        ints[macro, 0] = _TEMPLATES.ints[at, 0]
        ints[macro, 1:] = self.ints[rows[macro, np.newaxis],
                                    1 + _TEMPLATES.ints[at, 1:]]
        floats[macro] = _TEMPLATES.floats[at]
        return ElementColumns(ints, floats), offsets


# each macro's primitives on the rails 0..k-1 of its k parameters, all in one
# table: a synthesis places its primitives on its parameter rails only.
# _SIZE[kind] is a kind's number of primitives (1 for a primitive) and
# _FIRST[kind] a macro kind's first row in the table
_SYNTHESES = [macro_elements(name, tuple(range(ARITY[code])))
              for code, name in enumerate(KEYWORDS) if code > CC]
_TEMPLATES = ElementColumns.of(chain.from_iterable(_SYNTHESES))
_SIZE = np.array([1] * (CC + 1) + [len(synthesis) for synthesis in _SYNTHESES])
_FIRST = _SIZE.cumsum() - _SIZE - (CC + 1)


def coupler_angle(coupling_length, transfer_length):
    """theta = (pi/2) L_c / L_t, of floats or elementwise of arrays."""
    if not np.greater(transfer_length, 0.0).all():
        raise ValueError(f"transfer_length must be > 0, got {transfer_length}")
    if np.less(coupling_length, 0.0).any():
        raise ValueError(f"coupling_length must be >= 0, got {coupling_length}")
    return (math.pi / 2.0) * (coupling_length / transfer_length)


def coupler_matrix(coupling_length: float, transfer_length: float) -> np.ndarray:
    """Mode unitary of a waveguide coupler.

    theta = (pi/2) L_c / L_t: theta = pi/2 transfers the electron completely,
    theta = pi/4 splits 50/50.  Interaction lengths are additive:
    coupler(L) @ coupler(L') = coupler(L + L') for a common transfer length.
    """
    theta = coupler_angle(coupling_length, transfer_length)
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, 1j * s], [1j * s, c]], dtype=np.complex128)


# a stretch hands its couplers to fock.apply_mode_unitaries this many at a
# time, so that what it builds beside batch stays small: evolving the
# long_netlist benchmark circuit (1000 couplers) peaked at 519 KiB under
# tracemalloc in one call and at 70 KiB in blocks of 128
_BLOCK_COUPLERS = 128


def apply_stretch(batch: np.ndarray, n_rails: int, elements,
                  n_electrons: int) -> None:
    """Apply a stretch of elements, in order, to sector amplitudes, in place.

    ``batch`` is one ``(dim,)`` state vector or a ``(dim, m)`` batch whose
    columns the stretch acts on alike; its first axis follows
    ``fock.sector_basis(n_rails, n_electrons)``.  A phase shifter multiplies
    the components that occupy its rail by ``exp(i phi)``, a Coulomb coupler
    those that occupy both its rails by ``exp(-2i chi_t)``, and a waveguide
    coupler acts as the mode unitary ``coupler_matrix`` on its rails.  With
    one electron the sector is the rails themselves, in order, so an
    ``(n_rails, k)`` array of single-particle orbitals evolves as ``k``
    columns of the one-electron sector: every hopping sign is +1 and a
    Coulomb coupler acts as the identity.

    The phase shifters are diagonal, so they commute with each other and
    with a coupler on other rails.  Each is held, summed per rail, until a
    coupler on its rail needs it and is folded into that coupler's 2x2
    matrix, ``u <- u @ diag(exp(i phi_0), exp(i phi_1))``; what is held
    after the last coupler is applied at the end, rail by rail in ascending
    order, a zero angle too.  A Coulomb phase is applied where it stands,
    before the next coupler, whatever its angle.  The couplers and the
    phases go to ``fock.apply_mode_unitaries``, ``_BLOCK_COUPLERS``
    couplers a call.
    ``elements`` is an ``ElementColumns`` or a sequence of elements, which
    is compiled to one; the walk reads its columns.  The kernel compares no
    rail: ``fock``'s
    index helpers are the one rail check, so a rail outside ``[0,
    n_rails)`` raises ``ValueError`` when the coupler or the phase on it is
    applied.  By then the elements before it may have changed ``batch``,
    and for a held phase shifter the later elements of the stretch too.
    A macro raises ``TypeError`` while the stretch is walked, before the
    block that holds it is applied.
    """
    if not isinstance(elements, ElementColumns):
        elements = ElementColumns.of(elements)
    # the angle of each row: phi, a waveguide coupler's angle or chi_t
    kinds, rails0, rails1, _ = elements.ints.T.tolist()
    couplers = elements.kinds == BS
    angles = elements.floats[:, 0].copy()
    angles[couplers] = coupler_angle(angles[couplers], elements.floats[couplers, 1])
    held = {}       # rail -> summed angle of the phase shifters held on it
    pairs, us, phases = [], [], []
    for kind, r0, r1, angle in zip(kinds, rails0, rails1, angles.tolist()):
        if kind == PS:
            held[r0] = held.get(r0, 0.0) + angle
        elif kind == BS:
            c, s = math.cos(angle), 1j * math.sin(angle)
            p0, p1 = held.pop(r0, 0.0), held.pop(r1, 0.0)
            z0 = complex(math.cos(p0), math.sin(p0))
            z1 = complex(math.cos(p1), math.sin(p1))
            pairs.append((r0, r1))
            us += (c * z0, s * z1, s * z0, c * z1)
            if len(pairs) == _BLOCK_COUPLERS:
                fock.apply_mode_unitaries(batch, n_rails, pairs, us,
                                          n_electrons, phases)
                pairs, us, phases = [], [], []
        elif kind == CC:
            phases.append((len(pairs), (r0, r1) if r0 < r1 else (r1, r0),
                           -2.0 * angle))
        else:  # the first row of this kind is the first macro
            raise TypeError(f"not a gate element: {elements[kinds.index(kind)]!r}")
    end = len(pairs)
    phases += [(end, (rail,), held[rail]) for rail in sorted(held)]
    fock.apply_mode_unitaries(batch, n_rails, pairs, us, n_electrons, phases)


def apply_element_batch(batch: np.ndarray, n_rails: int, element: GateElement,
                        n_electrons: int) -> None:
    """Apply one element to sector amplitudes, in place: ``apply_stretch``
    of a one-element stretch."""
    apply_stretch(batch, n_rails, (element,), n_electrons)
