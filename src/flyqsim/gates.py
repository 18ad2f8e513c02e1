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
the one-electron sector.  It walks a stretch of primitives once, holds each
phase shifter until a coupler on its rail needs it, folds it into that
coupler's 2x2 matrix and hands the couplers, with the Coulomb phases in
their places between them, to ``fock.apply_mode_unitaries`` a block at a
time.  ``apply_element_batch`` is that kernel on a one-element stretch.
The kernel compares no rail: the ``fock`` index helpers refuse a rail
outside the register, so a bad rail may raise after later elements of the
stretch have changed the amplitudes.

``build_dense_unitary`` provides the brute-force oracle: it assembles the
full 2^n x 2^n matrix from dense ladder operators and matrix exponentials,
deliberately avoiding the update path the engine uses, so the two can be
checked against each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from math import isfinite
from typing import ClassVar, Union

import numpy as np

from . import fock
from .fock import CapacityError

DEFAULT_TRANSFER_LENGTH_UM = 0.28
FIFTY_FIFTY_COUPLING_UM = DEFAULT_TRANSFER_LENGTH_UM / 2
MAX_DENSE_RAILS = 6

HARDWARE_PHASE_RANGE = (0.0, math.pi)


def _rail_pair(rails) -> tuple:
    """``rails`` as a tuple of two distinct integer rails, else ``ValueError``.

    Each rail is tested with ``type(rail) is int`` first; only a miss goes
    through ``fock.require_integer``, the one integer rule.
    """
    if type(rails) is not tuple:
        rails = tuple(rails)
    if not (len(rails) == 2 and type(rails[0]) is int
            and type(rails[1]) is int):
        for rail in rails:
            fock.require_integer(rail, "element rail")
    if len(rails) != 2 or rails[0] == rails[1]:
        raise ValueError(f"coupler rails must be a distinct pair, got {rails}")
    return rails


def _checked_length(length) -> float:
    """An element's explicit ``len``, checked and stored as a ``float``."""
    if type(length) is not float:
        length = fock.require_float(length, "element length")
    if not (isfinite(length) and length >= 0.0):
        raise ValueError(f"element length must be finite and >= 0, got {length}")
    return length


# The element classes are frozen dataclasses with their own ``__init__``:
# it checks each field once, testing ``type(x) is int`` or ``type(x) is
# float`` before it calls ``fock.require_integer`` or ``fock.require_float``
# on a miss, and stores each checked value once with ``object.__setattr__``,
# as a generated frozen ``__init__`` does (writing ``__dict__`` instead
# would build a dict per element, which slows every later attribute read).
# ``dataclasses.replace`` calls the same ``__init__``.
_set_field = object.__setattr__


@dataclass(frozen=True, init=False)
class PhaseShifter:
    """Quantum-dot phase shifter on one rail; ``phi`` in radians."""

    keyword: ClassVar[str] = "ps"
    rail: int
    phi: float
    length: float | None = None
    # ``(rail,)``, built once: the schedule and the budget read it per element
    rails: tuple[int] = field(init=False, repr=False, compare=False)

    def __init__(self, rail: int, phi: float, length: float | None = None):
        if type(rail) is not int:
            fock.require_integer(rail, "element rail")
        if type(phi) is not float:
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
        if type(coupling_length) is not float:
            coupling_length = fock.require_float(coupling_length,
                                                 "coupling_length")
        if not (isfinite(coupling_length) and coupling_length >= 0.0):
            raise ValueError(f"coupling_length must be >= 0, "
                             f"got {coupling_length}")
        if type(transfer_length) is not float:
            transfer_length = fock.require_float(transfer_length,
                                                 "transfer_length")
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
        if type(chi_t) is not float:
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
        if type(rails) is not tuple:
            rails = tuple(rails)
        for rail in rails:
            if type(rail) is not int:
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
# and ``netlist.Circuit.expanded`` expands through ``macro_elements``.
MACROS = {
    "hadamard": (("rail0", "rail1"), logical_hadamard),
    "fredkin": (("control", "t0", "t1"),
                lambda rails: fredkin_circuit(rails[0], rails[1:])),
}


@lru_cache(maxsize=4096)
def macro_elements(name: str, rails: tuple) -> tuple:
    """Primitive synthesis of macro ``name`` on ``rails`` (cached).

    The elements are frozen, so one tuple is shared by every expansion of the
    same macro on the same rails.
    """
    return tuple(MACROS[name][1](rails))


GateElement = Union[PhaseShifter, WaveguideCoupler, CoulombCoupler, CompositeGate]


def coupler_angle(coupling_length: float, transfer_length: float) -> float:
    if not transfer_length > 0.0:
        raise ValueError(f"transfer_length must be > 0, got {transfer_length}")
    if coupling_length < 0.0:
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
    ``elements`` is a sequence.  The kernel compares no rail: ``fock``'s
    index helpers are the one rail check, so a rail outside ``[0,
    n_rails)`` raises ``ValueError`` when the coupler or the phase on it is
    applied.  By then the elements before it may have changed ``batch``,
    and for a held phase shifter the later elements of the stretch too.
    An object that is not a primitive raises ``TypeError`` while the
    stretch is walked, before the block that holds it is applied.
    """
    held = {}       # rail -> summed angle of the phase shifters held on it
    pairs, us, phases = [], [], []
    for element in elements:
        if isinstance(element, PhaseShifter):
            rail = element.rail
            held[rail] = held.get(rail, 0.0) + element.phi
        elif isinstance(element, WaveguideCoupler):
            r0, r1 = element.rails
            theta = coupler_angle(element.coupling_length,
                                  element.transfer_length)
            c, s = math.cos(theta), 1j * math.sin(theta)
            p0, p1 = held.pop(r0, 0.0), held.pop(r1, 0.0)
            z0 = complex(math.cos(p0), math.sin(p0))
            z1 = complex(math.cos(p1), math.sin(p1))
            pairs.append(element.rails)
            us += (c * z0, s * z1, s * z0, c * z1)
            if len(pairs) == _BLOCK_COUPLERS:
                fock.apply_mode_unitaries(batch, n_rails, pairs, us,
                                          n_electrons, phases)
                pairs, us, phases = [], [], []
        elif isinstance(element, CoulombCoupler):
            r0, r1 = element.rails
            phases.append((len(pairs), (r0, r1) if r0 < r1 else (r1, r0),
                           -2.0 * element.chi_t))
        else:
            raise TypeError(f"not a gate element: {element!r}")
    end = len(pairs)
    phases += [(end, (rail,), held[rail]) for rail in sorted(held)]
    fock.apply_mode_unitaries(batch, n_rails, pairs, us, n_electrons, phases)


def apply_element_batch(batch: np.ndarray, n_rails: int, element: GateElement,
                        n_electrons: int) -> None:
    """Apply one element to sector amplitudes, in place: ``apply_stretch``
    of a one-element stretch."""
    apply_stretch(batch, n_rails, (element,), n_electrons)


@lru_cache(maxsize=256)
def _dense_ladder(n_rails: int, rail: int) -> np.ndarray:
    """Dense annihilation operator with the package's sign convention.

    Cached and marked read-only; consumers must not mutate the result.
    """
    dim = 1 << n_rails
    op = np.zeros((dim, dim), dtype=np.complex128)
    for mask in range(dim):
        if (mask >> rail) & 1:
            below = mask & ((1 << rail) - 1)
            sign = -1.0 if (bin(below).count("1") & 1) else 1.0
            op[mask ^ (1 << rail), mask] = sign
    op.setflags(write=False)
    return op


def build_dense_unitary(element: GateElement, n_rails: int) -> np.ndarray:
    """Full second-quantized matrix of one element, brute force.

    Assembled from dense ladder operators and matrix exponentials of the
    generating Hamiltonians, including all fermionic signs.  Intended as an
    independent oracle for the engine's block updates; capped at
    ``MAX_DENSE_RAILS`` rails.
    """
    if n_rails < 1:
        raise ValueError(f"n_rails must be >= 1, got {n_rails}")
    if n_rails > MAX_DENSE_RAILS:
        raise CapacityError(
            f"dense oracle capped at {MAX_DENSE_RAILS} rails, got {n_rails}"
        )
    for r in element.rails:
        if not 0 <= r < n_rails:
            raise ValueError(f"rail index {r} out of range for {n_rails} rails")
    dim = 1 << n_rails
    if isinstance(element, PhaseShifter):
        a = _dense_ladder(n_rails, element.rail)
        number = a.conj().T @ a
        diag = np.exp(1j * element.phi * np.diag(number).real)
        return np.diag(diag)
    if isinstance(element, WaveguideCoupler):
        theta = coupler_angle(element.coupling_length, element.transfer_length)
        a_p = _dense_ladder(n_rails, element.rails[0])
        a_q = _dense_ladder(n_rails, element.rails[1])
        hop = a_p.conj().T @ a_q + a_q.conj().T @ a_p
        # hop acts as a Pauli X on each single-electron pair block and as 0
        # on the empty/full blocks, so hop^3 = hop and exp(i theta hop)
        # closes after the quadratic term
        return (np.eye(dim, dtype=np.complex128)
                + 1j * math.sin(theta) * hop
                + (math.cos(theta) - 1.0) * (hop @ hop))
    if isinstance(element, CoulombCoupler):
        a_p = _dense_ladder(n_rails, element.rails[0])
        a_q = _dense_ladder(n_rails, element.rails[1])
        n_p = np.diag(a_p.conj().T @ a_p).real
        n_q = np.diag(a_q.conj().T @ a_q).real
        return np.diag(np.exp(-2j * element.chi_t * n_p * n_q))
    if isinstance(element, CompositeGate):
        raise ValueError(f"composite gate '{element.name}' has no dense form; "
                         f"expand it first")
    raise TypeError(f"not a gate element: {element!r}")
