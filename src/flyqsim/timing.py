"""Emission timing, coincidence checking, and shot-based sampling.

A pump on each rail launches (or withholds) one electron after a
programmable delay.  Electrons drift at a common group velocity, so the
arrival time at an element is the emission delay plus the accumulated
upstream path over the velocity (``arrival_times``, one ``ElementArrival``
per element); two-electron gates require the two arrivals to coincide
within a configurable window (``check_coincidence`` returns the late
entries), and scheduling is checked before any sampling run.

Dephasing is modeled per trajectory: in ``monte-carlo`` mode every declared
wire segment of length ``l`` adds an independent Gaussian random phase to
the occupied components of its rail, drawn per shot with variance
``l / l_phi``.  Two interferometer arms of length ``l`` then accumulate a
relative phase of variance ``2 l / l_phi``, which averages interference
fringes down by ``exp(-l / l_phi)``, the standard reading of a phase
coherence length.  ``deterministic-factor`` mode samples exactly as ``off``;
its analytic factor ``exp(-longest_rail_path / l_phi)`` is the coherence
budget's (``budget.analyze``), not the sampler's.

Reproducibility contract: a run draws every random number from one Philox
stream, ``np.random.default_rng(np.random.Philox(master_seed))``.  Shot
``i`` owns the uniforms ``[i*k, (i+1)*k)`` of that stream, consumed in
order.  In ``off`` and ``deterministic-factor`` modes ``k = 1``: the single
uniform is the readout draw.  In ``monte-carlo`` mode with ``S`` declared
segments ``k = 2*ceil(S/2) + 1``: uniform pairs ``(u1, u2)`` give two
standard normals each by Box-Muller, ``sqrt(-2 ln(1 - u1))`` times
``cos(2 pi u2)`` and then ``sin(2 pi u2)``; the normals go to the segments
in the order of ``Circuit.segments``, which the circuit's constructor fixes
as netlist order: by element position, then declaration order within a
position (an odd ``S`` leaves the last normal unused).  The final uniform is
the readout draw.  Readout is inverse-CDF sampling
(``fock.sample_masks``).  Because every shot consumes a fixed block, the
histogram does not depend on how shots are chunked.

Every element and every segment phase conserves electron number, so
``run_shots`` evolves only the sector of the k electrons its pumps load,
over ``fock.sector_basis(n, k)``, the k-electron masks in ascending order.
Sampled positions map back to masks through that basis.  Off-sector
amplitudes are exact zeros, which add nothing to the cumulative sum, so the
histogram equals a full 2^n evolution's for the same seed.

All shots share one ``(C(n, k),)`` vector for as long as they can.  In
``off`` and ``deterministic-factor`` modes that is the whole circuit.  In
``monte-carlo`` mode it is up to the first element position with a segment
on a rail that is not definite in the shared vector: some nonzero
amplitudes occupy the rail and some do not.  A phase on a definite rail is
a global phase, so the wire before that position changes no probability;
leading wire from the pumps meets a Fock state and is always shared.  From
that position on the vector is copied into shot-minor ``(C(n, k), shots)``
batches, one column per shot, and every later segment gets its per-shot
phase.  The normals of the shared segments are still drawn, so the stream
contract above holds unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import fock
from .dualrail import decode
from .gates import apply_element_batch

DEFAULT_VELOCITY_UM_PS = 0.1
DEFAULT_WINDOW_PS = 1.0
DEFAULT_L_PHI_UM = 30.0

MODE_OFF = "off"
MODE_FACTOR = "deterministic-factor"
MODE_MC = "monte-carlo"
_MODE_ALIASES = {
    "off": MODE_OFF,
    "deterministic-factor": MODE_FACTOR,
    "factor": MODE_FACTOR,
    "monte-carlo": MODE_MC,
    "mc": MODE_MC,
}

# shots per sampling chunk; an mc chunk is further capped so that its
# (C(n, k), shots) batch stays within 2^22 amplitudes (64 MiB)
_SHOT_CHUNK = 8192


class ConfigError(ValueError):
    """Circuit is not simulatable as configured (e.g. a gate rail lacks a source)."""


class CoincidenceError(RuntimeError):
    """Run refused because the schedule check failed."""

    def __init__(self, violations):
        self.violations = list(violations)
        lines = "; ".join(str(v) for v in self.violations)
        super().__init__(f"coincidence check failed: {lines}")


@dataclass(frozen=True)
class SepSource:
    """Single-electron pump: one electron (or none) after ``emission_delay`` ps."""

    rail: int
    emission_delay: float
    emits: bool = True

    def __post_init__(self):
        if not (math.isfinite(self.emission_delay) and self.emission_delay >= 0):
            raise ValueError(f"emission_delay must be finite and >= 0, "
                             f"got {self.emission_delay}")


@dataclass(frozen=True)
class PropagationModel:
    velocity: float = DEFAULT_VELOCITY_UM_PS          # um / ps
    coincidence_window: float = DEFAULT_WINDOW_PS     # ps

    def __post_init__(self):
        if not self.velocity > 0:
            raise ValueError(f"velocity must be > 0, got {self.velocity}")
        if not self.coincidence_window > 0:
            raise ValueError(f"coincidence_window must be > 0, "
                             f"got {self.coincidence_window}")


@dataclass(frozen=True)
class DephasingModel:
    l_phi: float = DEFAULT_L_PHI_UM                   # um
    mode: str = MODE_OFF

    def __post_init__(self):
        if not self.l_phi > 0:
            raise ValueError(f"l_phi must be > 0, got {self.l_phi}")
        mode = _MODE_ALIASES.get(str(self.mode).lower())
        if mode is None:
            raise ValueError(f"unknown dephasing mode '{self.mode}' "
                             f"(expected off, deterministic-factor, or monte-carlo)")
        object.__setattr__(self, "mode", mode)


@dataclass(frozen=True, slots=True)
class ElementArrival:
    """Arrival times (ps) of each involved rail at one placed element;
    ``str`` gives the coincidence-violation text."""

    element_index: int
    keyword: str
    rails: tuple[int, ...]
    times: dict

    @property
    def spread(self) -> float:
        """Latest minus earliest arrival, ps (0 for a one-rail element)."""
        values = self.times.values()
        return max(values) - min(values) if values else 0.0

    def __str__(self) -> str:
        rails = " ".join(f"q{r}" for r in self.rails)
        arrivals = ", ".join(f"q{r}@{t:g}ps" for r, t in sorted(self.times.items()))
        return (f"element {self.element_index} ({self.keyword} {rails}): "
                f"|dt| = {self.spread:g} ps ({arrivals})")


@dataclass
class ShotHistogram:
    """Aggregated sampling run."""

    n_rails: int
    n_shots: int
    counts: dict                  # mask -> count, only nonzero entries
    logical_counts: dict | None   # outcome string -> count, when registers exist
    leak_count: int
    violations: list = field(default_factory=list)  # late ElementArrival, when overridden

    def probability(self, mask: int) -> float:
        return self.counts.get(mask, 0) / self.n_shots


def arrival_times(circuit, model: PropagationModel | None = None) -> list[ElementArrival]:
    """Per-element, per-rail arrival table.

    Arrival at an element is the rail's emission delay plus the accumulated
    upstream declared wire divided by the velocity.  Element footprints are
    deliberately not counted here (gates are timing points; their lengths
    enter the coherence budget instead).  Every rail that reaches a gate
    must have a declared source.
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


def check_coincidence(table, window: float = DEFAULT_WINDOW_PS) -> list[ElementArrival]:
    """The multi-rail entries of ``table`` whose ``spread`` exceeds ``window``."""
    if not window > 0:
        raise ValueError(f"window must be > 0, got {window}")
    return [entry for entry in table
            if len(entry.rails) > 1 and entry.spread > window]


def _box_muller(uniforms: np.ndarray, n_normals: int) -> np.ndarray:
    """Standard normals from uniform pairs, columns (0, 1), (2, 3), ...

    ``1 - u`` lies in ``(0, 1]``, so a uniform of 0.0 gives a finite
    radius of 0 rather than ``log(0)``.
    """
    radius = np.sqrt(-2.0 * np.log1p(-uniforms[:, 0::2]))
    angle = (2.0 * math.pi) * uniforms[:, 1::2]
    normals = np.empty((uniforms.shape[0], 2 * radius.shape[1]))
    normals[:, 0::2] = radius * np.cos(angle)
    normals[:, 1::2] = radius * np.sin(angle)
    return normals[:, :n_normals]


def run_shots(circuit, n_shots: int,
              dephasing: DephasingModel | None = None,
              master_seed: int = 0,
              propagation: PropagationModel | None = None,
              allow_desync: bool = False) -> ShotHistogram:
    """Sample ``n_shots`` detector readouts of a scheduled circuit.

    The schedule is checked first; violations abort with
    ``CoincidenceError`` unless ``allow_desync`` overrides, in which case the
    returned histogram lists them in ``violations``, as the late
    ``ElementArrival`` entries (empty when the schedule is coincident).
    Results are deterministic in ``master_seed`` (see module docstring for
    the stream contract).  ``deterministic-factor`` mode samples
    exactly as ``off``; its analytic factor is ``budget.analyze``'s
    ``coherence_factor``.  The histogram is the whole result: shots are
    i.i.d. given the seed, so no per-shot record is kept.
    """
    if n_shots < 1:
        raise ValueError(f"n_shots must be >= 1, got {n_shots}")
    if master_seed < 0:
        raise ValueError(f"master_seed must be >= 0, got {master_seed}")
    dephasing = dephasing or DephasingModel()
    propagation = propagation or PropagationModel()
    if circuit.has_composites():
        raise ConfigError("expand composite gates before simulation")

    table = arrival_times(circuit, propagation)
    violations = check_coincidence(table, propagation.coincidence_window)
    if violations and not allow_desync:
        raise CoincidenceError(violations)

    n_rails = circuit.n_rails
    # every element conserves electron number: evolve only the loaded sector
    loaded = fock.occupation_mask(
        n_rails, [src.rail for src in circuit.sources if src.emits])
    n_electrons = loaded.bit_count()
    sector = fock.sector_basis(n_rails, n_electrons)
    dim = sector.size
    shared = np.zeros(dim, dtype=np.complex128)
    shared[np.searchsorted(sector, loaded)] = 1.0

    # the shared prefix: one vector, up to the first position whose wire lies
    # on a rail not definite in it (some nonzero amplitudes occupy the rail,
    # some do not); before it every segment phase is a global phase
    mc = dephasing.mode == MODE_MC
    elements = circuit.elements
    n_elements = len(elements)
    branch = len(circuit.wire)
    first_draw = 0  # normals of the shared segments, drawn but not used
    for position, group in enumerate(circuit.wire):
        if mc and group:
            masks = sector[np.flatnonzero(shared)]
            mixed = int(np.bitwise_or.reduce(masks) ^ np.bitwise_and.reduce(masks))
            if any((mixed >> seg.rail) & 1 for seg in group):
                branch = position
                break
            first_draw += len(group)
        if position < n_elements:
            apply_element_batch(shared, n_rails, elements[position], n_electrons)

    # per position from the branch on: (occupied sector positions, phase std)
    # of each segment; empty when every shot shares the one vector
    segment_plan = [
        [(fock.rail_occupied_indices(n_rails, seg.rail, n_electrons),
          math.sqrt(seg.length / dephasing.l_phi)) for seg in group]
        for group in circuit.wire[branch:]]
    if segment_plan:
        chunk = max(1, min(_SHOT_CHUNK, (1 << 22) // dim))
    else:
        cumulative = np.cumsum(np.abs(shared) ** 2)
        chunk = _SHOT_CHUNK
    # mc shots draw the normals of shared segments too: shot i keeps its block
    n_normals = len(circuit.segments) if mc else 0
    uniforms_per_shot = 2 * ((n_normals + 1) // 2) + 1

    stream = np.random.default_rng(np.random.Philox(master_seed))
    total_counts = np.zeros(dim, dtype=np.int64)

    for start in range(0, n_shots, chunk):
        size = min(chunk, n_shots - start)
        uniforms = stream.random((size, uniforms_per_shot))
        if segment_plan:
            normals = _box_muller(uniforms[:, :-1], n_normals)
            batch = np.repeat(shared[:, np.newaxis], size, axis=1)
            draw = first_draw
            for position, group in enumerate(segment_plan, branch):
                for idx, std in group:
                    # out of place, as in fock.mode_unitary_batch
                    batch[idx] = batch[idx] * np.exp(1j * std * normals[:, draw])
                    draw += 1
                if position < n_elements:
                    apply_element_batch(batch, n_rails, elements[position],
                                        n_electrons)
            positions = fock.sample_masks(np.cumsum(np.abs(batch) ** 2, axis=0),
                                          uniforms[:, -1])
        else:
            positions = fock.sample_masks(cumulative, uniforms[:, -1])
        total_counts += np.bincount(positions, minlength=dim)

    observed = np.flatnonzero(total_counts)
    counts = dict(zip(sector[observed].tolist(), total_counts[observed].tolist()))
    logical_counts = None
    leak_count = 0
    if circuit.register is not None:
        logical_counts = {}
        for mask, count in counts.items():
            outcome = decode(mask, circuit.register)
            key = str(outcome)
            logical_counts[key] = logical_counts.get(key, 0) + count
            if outcome.has_leak:
                leak_count += count

    return ShotHistogram(
        n_rails=n_rails,
        n_shots=n_shots,
        counts=counts,
        logical_counts=logical_counts,
        leak_count=leak_count,
        violations=violations,
    )
