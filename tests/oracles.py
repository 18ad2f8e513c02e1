"""Independent dense oracles for the test suite.

Everything here is built from scratch with scalar loops and matrix
exponentials of second-quantized generators; none of it shares code with the
engine's block updates or with the library's own dense builder, so the three
routes can be checked against each other.  The one exception is
``dense_rho_probabilities``, which takes its element matrices from the
library's brute-force ``build_dense_unitary``, never from the engine.
The front-end oracles at the end are the plain forms of macro expansion
(every segment rebuilt, the result validated again) and of the path-length
budget (a scalar loop); the expansion takes its primitives from the one
macro table, ``gates.macro_elements``.

Conventions match the package docs: bit i of a basis mask marks rail i
occupied, and kets apply creation operators in increasing rail order.
"""

import dataclasses
import itertools
import math

import numpy as np
from scipy.linalg import expm, logm

from flyqsim.gates import (
    CompositeGate,
    CoulombCoupler,
    PhaseShifter,
    WaveguideCoupler,
    build_dense_unitary,
    coupler_angle,
    macro_elements,
)
from flyqsim.netlist import Segment
from flyqsim.timing import ConfigError, ElementArrival, PropagationModel


def ladder_down(n_rails: int, rail: int) -> np.ndarray:
    """Annihilation operator with (-1)^(occupied below) signs."""
    dim = 1 << n_rails
    op = np.zeros((dim, dim), dtype=complex)
    for mask in range(dim):
        if (mask >> rail) & 1:
            sign = (-1) ** bin(mask & ((1 << rail) - 1)).count("1")
            op[mask ^ (1 << rail), mask] = sign
    return op


def number_op(n_rails: int, rail: int) -> np.ndarray:
    a = ladder_down(n_rails, rail)
    return a.conj().T @ a


def dense_phase_shifter(n_rails: int, rail: int, phi: float) -> np.ndarray:
    return expm(1j * phi * number_op(n_rails, rail))


def dense_coupler(n_rails: int, rail_a: int, rail_b: int, theta: float) -> np.ndarray:
    a, b = ladder_down(n_rails, rail_a), ladder_down(n_rails, rail_b)
    hop = a.conj().T @ b + b.conj().T @ a
    return expm(1j * theta * hop)


def dense_coulomb(n_rails: int, rail_a: int, rail_b: int, chi_t: float) -> np.ndarray:
    joint = number_op(n_rails, rail_a) @ number_op(n_rails, rail_b)
    return expm(-2j * chi_t * joint)


def dense_mode_unitary(n_rails: int, rails, u) -> np.ndarray:
    """Fock-space lift of an arbitrary 2x2 mode unitary on a rail pair."""
    h = logm(np.asarray(u, dtype=complex))
    ops = [ladder_down(n_rails, r) for r in rails]
    gen = sum(h[i, j] * ops[i].conj().T @ ops[j]
              for i in range(2) for j in range(2))
    return expm(gen)


def dense_element(element, n_rails: int) -> np.ndarray:
    if isinstance(element, PhaseShifter):
        return dense_phase_shifter(n_rails, element.rail, element.phi)
    if isinstance(element, WaveguideCoupler):
        theta = coupler_angle(element.coupling_length, element.transfer_length)
        return dense_coupler(n_rails, element.rails[0], element.rails[1], theta)
    if isinstance(element, CoulombCoupler):
        return dense_coulomb(n_rails, element.rails[0], element.rails[1],
                             element.chi_t)
    raise TypeError(f"no dense oracle for {element!r}")


def circuit_unitary(elements, n_rails: int) -> np.ndarray:
    """Product of element matrices in application order."""
    total = np.eye(1 << n_rails, dtype=complex)
    for element in elements:
        total = dense_element(element, n_rails) @ total
    return total


def single_particle_unitary(elements, n_rails: int) -> np.ndarray:
    """``n x n`` mode unitary of Coulomb-free elements, row by row.

    Built from the documented matrices alone: a phase shifter multiplies its
    rail's row by ``e^{i phi}``; a coupler mixes its two rows, first rail
    first, by ``[[cos t, i sin t], [i sin t, cos t]]``,
    ``t = (pi/2) Lc / Lt``.
    """
    u = np.eye(n_rails, dtype=complex)
    for element in elements:
        if isinstance(element, PhaseShifter):
            u[element.rail] *= np.exp(1j * element.phi)
        else:
            a, b = element.rails
            theta = (math.pi / 2) * element.coupling_length / element.transfer_length
            c, s = math.cos(theta), 1j * math.sin(theta)
            u[[a, b]] = np.array([[c, s], [s, c]]) @ u[[a, b]]
    return u


def determinant_probabilities(u: np.ndarray, occupied, masks) -> np.ndarray:
    """``|det U[S, occ]|^2`` for each mask ``S``: the probability that
    electrons loaded on the rails ``occupied`` leave on the rails of ``S``
    (rows and columns in ascending rail order)."""
    occupied = sorted(occupied)
    probabilities = []
    for mask in masks:
        rows = [r for r in range(u.shape[0]) if (mask >> r) & 1]
        probabilities.append(abs(np.linalg.det(u[np.ix_(rows, occupied)])) ** 2)
    return np.array(probabilities)


def controlled_swap_target(mask: int, control: int, t0: int, t1: int) -> int:
    """Image of a basis mask under an ideal controlled swap."""
    if not (mask >> control) & 1:
        return mask
    bit0 = (mask >> t0) & 1
    bit1 = (mask >> t1) & 1
    swapped = mask & ~((1 << t0) | (1 << t1))
    return swapped | (bit1 << t0) | (bit0 << t1)


def _initial_mask(circuit) -> int:
    return sum(1 << src.rail for src in circuit.sources if src.emits)


def dense_rho_probabilities(circuit, l_phi: float) -> np.ndarray:
    """Outcome probabilities over all 2^n masks of the noise-averaged rho.

    Full-space density matrix: every segment, the trailing ones included,
    applies its Gaussian phase channel, built entry by entry, and every
    element conjugates rho by its ``build_dense_unitary`` matrix.
    """
    n = circuit.n_rails
    dim = 1 << n
    rho = np.zeros((dim, dim), dtype=complex)
    rho[_initial_mask(circuit), _initial_mask(circuit)] = 1.0
    for position in range(len(circuit.elements) + 1):
        for seg in circuit.segments:
            if seg.position != position:
                continue
            damp = math.exp(-0.5 * seg.length / l_phi)
            channel = np.ones((dim, dim))
            for a in range(dim):
                for b in range(dim):
                    if (a >> seg.rail) & 1 != (b >> seg.rail) & 1:
                        channel[a, b] = damp
            rho = rho * channel
        if position < len(circuit.elements):
            u = build_dense_unitary(circuit.elements[position], n)
            rho = u @ rho @ u.conj().T
    return np.diag(rho).real


def gauss_hermite_probabilities(circuit, l_phi: float, nodes: int = 40) -> np.ndarray:
    """Outcome probabilities over all 2^n masks, averaged by quadrature.

    A tensor Gauss-Hermite grid over the standard normal of each segment
    (keep to a few segments: the grid has ``nodes ** S`` points); each
    point evolves one state through ``dense_element`` with the segment
    phases ``sqrt(l / l_phi) x`` applied to the occupied masks.
    """
    n = circuit.n_rails
    dim = 1 << n
    x, w = np.polynomial.hermite_e.hermegauss(nodes)
    w = w / math.sqrt(2.0 * math.pi)
    segments = list(circuit.segments)
    grid = list(itertools.product(range(nodes), repeat=len(segments)))
    weights = np.array([math.prod(w[i] for i in point) for point in grid])
    states = np.zeros((dim, len(grid)), dtype=complex)
    states[_initial_mask(circuit)] = 1.0
    masks = np.arange(dim)
    for position in range(len(circuit.elements) + 1):
        for j, seg in enumerate(segments):
            if seg.position != position:
                continue
            phases = math.sqrt(seg.length / l_phi) * x[[point[j] for point in grid]]
            occupied = (masks >> seg.rail) & 1 == 1
            states[occupied] *= np.exp(1j * phases)
        if position < len(circuit.elements):
            states = dense_element(circuit.elements[position], n) @ states
    return (np.abs(states) ** 2) @ weights


def arrival_rows(circuit, model=None) -> list:
    """Arrival table by a scalar loop: one ``ElementArrival`` per element.

    Each rail's wire is summed segment by segment in netlist order; the
    arrival is the rail's emission delay plus that running total over the
    velocity.  The first element on a rail without a source raises
    ``ConfigError``.
    """
    model = model or PropagationModel()
    delays = {src.rail: src.emission_delay for src in circuit.sources}
    velocity = model.velocity
    traveled = [0.0] * circuit.n_rails
    table = []
    for index, element in enumerate(circuit.elements):
        for seg in circuit.wire[index]:
            traveled[seg.rail] += seg.length
        rails = element.rails
        times = {}
        try:
            for r in rails:
                times[r] = delays[r] + traveled[r] / velocity
        except KeyError:
            names = ", ".join(f"q{r}" for r in rails if r not in delays)
            raise ConfigError(f"element {index} ({element.keyword}) "
                              f"needs a source on {names}") from None
        table.append(ElementArrival(index, element.keyword, rails, times))
    return table


def late_rows(rows, window: float) -> list:
    """The multi-rail rows whose spread exceeds ``window``."""
    return [row for row in rows if len(row.rails) > 1 and row.spread > window]


def oracle_masks(probabilities, uniforms):
    """Inverse-CDF readout by a scalar loop: the first mask whose cumulative
    weight exceeds ``u`` times the total, else (a draw rounded up to a
    subnormal total) the last mask of nonzero weight."""
    cumulative = np.cumsum(probabilities)
    last = max(m for m, p in enumerate(probabilities) if p > 0)
    return [next((m for m, c in enumerate(cumulative) if c > u * cumulative[-1]),
                 last)
            for u in uniforms]


def fidelity(a, b) -> float:
    """|<a|b>|^2 of two amplitude vectors, insensitive to global phase."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"vector shape mismatch: {a.shape} vs {b.shape}")
    overlap = np.vdot(a, b)
    return float(min(abs(overlap) ** 2, 1.0))


# --- front end -----------------------------------------------------------


def expand_composites(circuit):
    """Macro expansion by rebuilding every segment and validating the whole
    result again through ``dataclasses.replace``: the expansion
    ``Circuit.expanded`` derives without that second walk."""
    if not any(isinstance(e, CompositeGate) for e in circuit.elements):
        return circuit
    new_elements = []
    offsets = []
    for element in circuit.elements:
        offsets.append(len(new_elements))
        if isinstance(element, CompositeGate):
            new_elements.extend(macro_elements(element.name, element.rails))
        else:
            new_elements.append(element)
    offsets.append(len(new_elements))
    new_segments = [Segment(s.rail, s.length, offsets[s.position])
                    for s in circuit.segments]
    return dataclasses.replace(circuit, elements=new_elements,
                               segments=new_segments)


def rail_path_lengths(circuit) -> list:
    """Per-rail path length by a scalar loop over the expansion: every
    segment's length, then every element's footprint once per rail it passes
    through."""
    circuit = expand_composites(circuit)
    lengths = [0.0] * circuit.n_rails
    for seg in circuit.segments:
        lengths[seg.rail] += seg.length
    for element in circuit.elements:
        footprint = element.footprint
        for rail in element.rails:
            lengths[rail] += footprint
    return lengths
