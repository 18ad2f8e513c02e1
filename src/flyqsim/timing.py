"""Emission timing, coincidence checking, and shot-based sampling.

A pump on each rail launches (or withholds) one electron after a
programmable delay.  Electrons drift at a common group velocity, so the
arrival time at an element is the emission delay plus the accumulated
upstream path over the velocity.  Every function here reads a circuit's
primitive form, ``circuit.expanded``, so a macro is timed and simulated as
the primitives it stands for, and reads its compiled columns (rails, kinds
and angles per element, rail, length and position per segment), not element
objects.  ``arrival_times`` computes every arrival of a netlist in one
array pass over them and returns an ``ArrivalTable``, which builds one
``ElementArrival``, and its element, per entry on demand.  Two-electron gates
require their arrivals to coincide within a configurable window:
``check_coincidence`` compares every element's spread with the window in
one vector operation and builds ``ElementArrival`` only for the late
entries.  Scheduling is checked before any sampling run.

Dephasing: in ``monte-carlo`` mode every declared wire segment of length
``l`` adds an independent Gaussian random phase of variance ``l / l_phi`` to
the occupied components of its rail.  Two interferometer arms of length
``l`` then accumulate a relative phase of variance ``2 l / l_phi``, which
averages interference fringes down by ``exp(-l / l_phi)``, the standard
reading of a phase coherence length.  The shots sample the exact average
over these phases rather than one drawn phase set per shot: a Gaussian
phase is a phase-damping channel, which multiplies the density matrix
elementwise by ``exp(-l / (2 l_phi))`` wherever the two masks disagree on
the rail (``outcome_probabilities``).  ``deterministic-factor`` mode samples
exactly as ``off``; its analytic factor ``exp(-longest_rail_path / l_phi)``
is the coherence budget's (``budget.analyze``), not the sampler's.

Reproducibility contract: a run draws every random number from one Philox
stream, ``np.random.default_rng(np.random.Philox(master_seed))``.  Shot
``i`` reads uniform ``i`` of that stream (``k = 1`` uniform per shot in
every mode) for its readout, by inverse-CDF sampling of the outcome
probabilities.  Shots are drawn in chunks of ``_SHOT_CHUNK`` uniforms, and
``fock.sample_counts`` turns each chunk into counts per basis position,
without a per-shot record: it sorts the chunk's draws, searches the
shorter of draws and cumulative probabilities in the longer, and adds the
counts to the run's count array, touching only the positions drawn when
they are fewer than the positions.  Because
every shot consumes a fixed block and a count does not depend on the order
of the draws, the histogram does not depend on how shots are chunked.

Every element and every segment phase conserves electron number, and a
waveguide coupler moves an electron between its own two rails only, while
phase shifters and Coulomb couplers are diagonal.  So the electron count
of each group of rails that the couplers connect never changes, and
``run_shots`` samples only the run's block: the masks that keep the count
the pumps load on every group.  ``outcome_probabilities`` finds the groups
once per run, in one array pass over the couplers' rail pairs
(``_block``), and builds the block's masks in ascending order
(``fock.block_basis``): ``2^q`` masks for ``q`` dual-rail qubits, where
the sector of their ``q`` electrons holds ``C(2q, q)``; with one group of
every rail the block is the sector, ``fock.sector_basis(n, k)``.  Sampled
positions map back to masks through that basis.  The basis is built
before any block-sized array, so a block above the one capacity rule of
``fock`` (2^24 amplitudes) is refused with ``fock.CapacityError`` in
every mode, whatever the rail count.  The masks left out could only carry
exact zeros, and a running sum over an ascending subset that drops only
zeros has the same partial sums, so the counts are those of the sector.

``outcome_probabilities`` reaches the block by one of two paths, chosen
by one condition: the circuit and the mode, nothing else.

* Free path: ``off`` and ``deterministic-factor`` mode with no
  ``CoulombCoupler`` in the expanded circuit.  Phase shifters and couplers
  act on each electron alone, so the ``n x k`` single-particle orbitals
  ``U[:, occ]`` are evolved by the stretch kernel as ``k`` columns of the
  one-electron sector (``gates.apply_stretch``) and lifted to the sector
  once (``fock.lift_columns``): mask ``S`` has probability
  ``|det U[S, occ]|^2``.  With more electrons than empty rails the empty
  rails' orbitals are lifted instead.  The block's entries of the lifted
  probabilities are kept; the sector's others are exact zeros.  It agrees
  with the sector path to rounding (about 1e-15), not bit for bit.
* Sector path: ``monte-carlo`` mode, or any ``cc``.  The stretch kernel
  (``gates.apply_stretch``) evolves the block's amplitudes, one call per
  stretch of elements: the whole circuit in ``off`` and
  ``deterministic-factor`` mode, the elements between two wire positions
  with segments in ``monte-carlo`` mode.  The whole sector is the block of
  one group, so there is no second form of this path.

Both paths feed the same cumulative sum, so the stream contract above does
not depend on the path.

The sector path keeps one ``(dim,)`` vector over the block for as long as
it can.  In
``off`` and ``deterministic-factor`` modes that is the whole circuit.  In
``monte-carlo`` mode it is up to the first element position with a segment
on a rail that is not definite over the support: some nonzero amplitudes
occupy the rail and some do not.  A phase on a definite rail is a global
phase, so such wire changes no probability; leading wire from the pumps
meets a Fock state and is always skipped, and so is the wire after the last
element, whose channel keeps the diagonal.  From the first wire that counts,
the state is a density matrix ``rho = B B^H`` held as its factor ``B``, one
column at first; every stretch acts on ``B``'s columns.  At each position
whose wire counts, ``B`` is rebuilt over its support of ``s`` rows from the
eigenpairs of the dephased ``s x s`` block of ``rho``, so it keeps at most
``s`` columns.  A support above ``_DENSE_SUPPORT`` rows switches to the dense
``(dim, dim)`` rho for the rest of the run, where a stretch is
applied to the rows and then, after one conjugate transpose, to the rows
again.  Under the same rule (``fock.check_capacity``) the run may hold no
more than 2^24 amplitudes' worth of arrays at once (256 MiB), or it is
refused with ``fock.CapacityError`` and the advice to use factor mode,
which holds the block and, while a coupler acts, about one more block's
worth.  The factored form counts, at each rebuild, the new ``B`` with two
more ``B``'s worth of kernel temporaries, the previous ``B`` and six
complex ``s x s`` arrays for the eigen-decomposition; the dense form
counts rho and one more rho's worth at a time (its conjugate-transposed
copy, the kernel's gathered blocks or the two float arrays of its damping
factors), three rho's worth with room to spare.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import fock
from .dualrail import decode
from .gates import (  # noqa: F401  perfbench/tracing.py wraps apply_element_batch here
    BS,
    CC,
    apply_element_batch,
    apply_stretch,
)

DEFAULT_VELOCITY_UM_PS = 0.1
DEFAULT_WINDOW_PS = 1.0
DEFAULT_L_PHI_UM = 30.0

MODE_OFF = "off"
MODE_FACTOR = "deterministic-factor"
MODE_MC = "monte-carlo"
# the command line's name of each mode: the --dephasing choices, the names
# RunConfig takes and the machine header's dephasing= value
MODE_NAMES = {"off": MODE_OFF, "factor": MODE_FACTOR, "mc": MODE_MC}
# DephasingModel also takes each mode by itself
_MODE_ALIASES = {**MODE_NAMES, **{mode: mode for mode in MODE_NAMES.values()}}

# shots per sampling chunk: the 64 KiB of draws stay in cache while they are
# sorted.  Sampling 5e4 shots on a 2-vCPU Xeon, chunks of 8192 and 16384
# were fastest, 1024 about 1.5x and 65536 about 1.25x slower
_SHOT_CHUNK = 8192
# the factored monte-carlo average switches to a dense rho above this support
_DENSE_SUPPORT = 256
# the monte-carlo average may hold no more than fock.MAX_AMPLITUDES
# amplitudes' worth of arrays at once, checked with fock.check_capacity.
# The dense form holds rho and, one at a time, its conjugate-transposed
# copy, the kernel's gathered blocks (1.39 rho's worth), or the damping D
# and its exp temporary (two float arrays): 2.39 rho's worth measured with
# tracemalloc on a 252-mask circuit, counted as three complex (dim, dim)
# arrays.  A dense rho has a support above _DENSE_SUPPORT, so its block is
# too large for the kernel's partner rows.
_DENSE_COPIES = 3
# the factored form holds B and, while a stretch acts on it, up to two more
# B's worth: the gathered blocks and products of the position updates (1.39
# B's worth measured with tracemalloc at ranks 162 to 250 of a 252-mask
# circuit) or the one gathered copy of the partner rows (1.14 to 1.46, the
# larger with a Coulomb phase's gathered block).  The partner form counts
# its own rows through fock.check_capacity.
# A rebuild also holds the previous B and the s x s work of the
# eigen-decomposition: the damping D with its temporaries, K, LAPACK's copy
# and workspace and the eigenvectors (5 complex s x s arrays' worth measured)
_FACTORED_COPIES = 3
_BLOCK_COPIES = 6
_MC_ADVICE = "; use factor mode (--dephasing factor) for this circuit"


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
    """Single-electron pump: one electron (or none) after ``emission_delay`` ps.

    ``rail`` must be an integer (a numpy one too, ``bool`` not) and is stored
    as an ``int``; ``Circuit`` checks its range.  ``emits`` must be a
    ``bool`` (a numpy one too) and is stored as one.
    """

    rail: int
    emission_delay: float
    emits: bool = True

    def __post_init__(self):
        object.__setattr__(self, "rail", int(fock.require_integer(self.rail,
                                                                  "source rail")))
        if not isinstance(self.emits, (bool, np.bool_)):
            raise ValueError(f"emits must be a bool, got {self.emits!r}")
        object.__setattr__(self, "emits", bool(self.emits))
        delay = fock.require_float(self.emission_delay, "emission_delay")
        if not (math.isfinite(delay) and delay >= 0):
            raise ValueError(f"emission_delay must be finite and >= 0, "
                             f"got {delay}")
        object.__setattr__(self, "emission_delay", delay)


@dataclass(frozen=True)
class PropagationModel:
    velocity: float = DEFAULT_VELOCITY_UM_PS          # um / ps
    coincidence_window: float = DEFAULT_WINDOW_PS     # ps

    def __post_init__(self):
        object.__setattr__(self, "velocity",
                           fock.require_positive(self.velocity, "velocity"))
        object.__setattr__(self, "coincidence_window",
                           fock.require_positive(self.coincidence_window,
                                                 "coincidence_window"))


@dataclass(frozen=True)
class DephasingModel:
    """Coherence length ``l_phi`` (um) and the dephasing ``mode``, stored as
    one of ``MODE_OFF``, ``MODE_FACTOR`` and ``MODE_MC``.  ``mode`` may be
    given as that value or as its command-line name in ``MODE_NAMES``, in
    any case."""

    l_phi: float = DEFAULT_L_PHI_UM                   # um
    mode: str = MODE_OFF

    def __post_init__(self):
        object.__setattr__(self, "l_phi",
                           fock.require_positive(self.l_phi, "l_phi"))
        mode = _MODE_ALIASES.get(str(self.mode).lower())
        if mode is None:
            raise ValueError(f"unknown dephasing mode '{self.mode}' (expected "
                             f"{MODE_OFF}, {MODE_FACTOR}, or {MODE_MC})")
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


@dataclass(eq=False)
class ShotHistogram:
    """Aggregated sampling run, in the sampler's own form.

    ``masks`` are the observed masks, ascending, and ``mask_counts`` their
    positive counts: two int64 arrays that the report writes without
    sorting.  ``counts`` is the same histogram as a ``{mask: count}`` dict
    of Python ints, built when read.  ``==`` compares every field.
    """

    n_shots: int
    masks: np.ndarray             # observed masks, ascending int64
    mask_counts: np.ndarray       # their counts, int64, summing to n_shots
    logical_counts: dict | None   # decode key -> count, when registers exist
    leak_count: int
    violations: list = field(default_factory=list)  # late ElementArrival, when overridden

    @property
    def counts(self) -> dict:
        """``{mask: count}`` of the observed masks, in ascending order."""
        return dict(zip(self.masks.tolist(), self.mask_counts.tolist()))

    def __eq__(self, other):
        if not isinstance(other, ShotHistogram):
            return NotImplemented
        return (self.n_shots == other.n_shots
                and np.array_equal(self.masks, other.masks)
                and np.array_equal(self.mask_counts, other.mask_counts)
                and self.logical_counts == other.logical_counts
                and self.leak_count == other.leak_count
                and self.violations == other.violations)


class ArrivalTable(Sequence):
    """Arrival times (ps) of every placed element, held in one array.

    ``elements`` is a sequence of primitives, each on one or two rails: a
    circuit's ``gates.ElementColumns``, which builds an element when it is
    indexed.  Column ``i`` of the ``(2, elements)`` array ``times`` holds the
    arrivals at ``elements[i]`` on its first and on its last rail: a
    one-rail element's column repeats its rail, which changes no spread.
    Indexing and iteration build each element's ``ElementArrival`` on
    demand.
    """

    __slots__ = ("elements", "times")

    def __init__(self, elements, times: np.ndarray):
        self.elements = elements
        self.times = times

    def __len__(self) -> int:
        return len(self.elements)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        element = self.elements[index]
        index = operator.index(index) % len(self.elements)
        return _arrival(index, element, self.times[:, index].tolist())

    def __iter__(self):
        for index, (element, times) in enumerate(zip(self.elements,
                                                     self.times.T.tolist())):
            yield _arrival(index, element, times)


def _arrival(index: int, element, times: list) -> ElementArrival:
    rails = element.rails
    return ElementArrival(index, element.keyword, rails, dict(zip(rails, times)))


def arrival_times(circuit, model: PropagationModel | None = None) -> ArrivalTable:
    """Per-element, per-rail arrival table of ``circuit.expanded``, computed
    in one array pass.

    Arrival at an element is the rail's emission delay plus the accumulated
    upstream declared wire divided by the velocity.  Element footprints are
    deliberately not counted here (gates are timing points; their lengths
    enter the coherence budget instead).  Every rail that reaches a gate
    must have a declared source: otherwise ``ConfigError`` names the first
    element, in order, on a rail without one.  Every arrival must be
    finite: wire over a velocity small enough to pass the float range
    raises ``ConfigError`` naming the first element it reaches, since the
    spread of two infinite arrivals is NaN and would pass any window.

    The rails are the circuit's element columns, the wire its three wire
    columns.  Column ``j + 1`` of an ``(n_rails, segments + 1)`` array
    holds segment ``j``'s length in its rail's row, in netlist order, and
    zeros elsewhere.  One ``np.add.accumulate`` along the rows gives every rail's
    running wire total: an accumulation adds sequentially and adding 0.0
    changes no sum, so each total equals a running scalar sum's bit for
    bit.  Element ``i`` reads the column after the last segment placed at
    or before it, found by ``searchsorted`` on the segment positions.
    """
    model = model or PropagationModel()
    circuit = circuit.expanded
    elements = circuit.columns
    n_elements = len(elements)
    # first and last rail of every element, C-ordered: the spread's
    # reductions over the first axis took 0.45 ms on F-ordered times of 4500
    # elements and take 0.015 ms on these
    rails = elements.end_rails()
    delays = [math.nan] * circuit.n_rails
    for src in circuit.sources:
        delays[src.rail] = src.emission_delay
    times = np.array(delays, dtype=np.float64)[rails]
    if len(circuit.sources) < circuit.n_rails:  # a rail without a pump
        lacking = np.isnan(times)
        if lacking.any():
            index = int(lacking.any(axis=0).argmax())
            element = elements[index]
            names = ", ".join(f"q{r}" for r in element.rails
                              if math.isnan(delays[r]))
            raise ConfigError(f"element {index} ({element.keyword}) "
                              f"needs a source on {names}")
    seg_rails, lengths, positions = circuit.wire_columns
    n_segments = len(lengths)
    traveled = np.zeros((circuit.n_rails, n_segments + 1))
    traveled[seg_rails, np.arange(1, n_segments + 1)] = lengths
    reached = positions.searchsorted(np.arange(n_elements), side="right")
    with np.errstate(over="ignore"):  # an overflow is refused just below
        np.add.accumulate(traveled, axis=1, out=traveled)
        times += traveled[rails, reached] / model.velocity
    finite = np.isfinite(times)
    if not finite.all():
        index = int((~finite).any(axis=0).argmax())
        element = elements[index]
        names = ", ".join(f"q{rail}" for rail, ok in zip(
            element.rails, finite[:, index].tolist()) if not ok)
        raise ConfigError(f"element {index} ({element.keyword}) arrival time "
                          f"on {names} is not finite (upstream wire over "
                          f"velocity {model.velocity:g} um/ps)")
    return ArrivalTable(elements, times)


def check_coincidence(table: ArrivalTable,
                      window: float = DEFAULT_WINDOW_PS) -> list[ElementArrival]:
    """The multi-rail entries of ``table`` whose ``spread`` exceeds ``window``.

    Every element's spread is compared with the window in one vector
    operation; only the late entries are built as ``ElementArrival``.  A
    one-rail element's spread is 0, so it is never late.  ``window`` follows
    ``PropagationModel``'s number rule, ``fock.require_positive``.
    """
    window = fock.require_positive(window, "window")
    times = table.times
    spread = np.maximum.reduce(times) - np.minimum.reduce(times)
    late = (spread > window).nonzero()[0]
    return [table[index] for index in late.tolist()]


def _coherence(masks: np.ndarray, rails: np.ndarray,
               rates: np.ndarray) -> np.ndarray:
    """Phase-damping factors ``D[a, b]`` of one wire position over ``masks``.

    ``D[a, b] = exp(-1/2 sum_r rates[r] [n_r(a) != n_r(b)])``, where
    ``rates[r]`` is the position's wire on ``rails[r]`` over ``l_phi``: the
    Gaussian average of the segment phases.  ``[x != y]`` is
    ``x + y - 2 x y`` for occupations, so one matmul gives the cross term.
    """
    occupied = ((masks[:, np.newaxis] >> rails) & 1).astype(np.float64)
    lost = occupied @ rates
    return np.exp((occupied * rates) @ occupied.T
                  - 0.5 * (lost[:, np.newaxis] + lost[np.newaxis, :]))


def _dephase(state: np.ndarray, dense: bool, group, basis: np.ndarray,
             l_phi: float) -> tuple[np.ndarray, bool]:
    """Average ``state`` over the Gaussian phases of one wire position,
    whose segments ``group`` holds as two lists, rails and lengths.

    ``state`` is the factored ``B`` of ``rho = B B^H`` (a ``(dim,)`` vector or
    a ``(dim, r)`` array) or, when ``dense``, ``rho`` itself, over the
    run's block, whose masks ``basis`` holds.  A segment on a
    rail definite over the support (the nonzero rows) multiplies ``rho`` by 1
    and is dropped.  A factored support above ``_DENSE_SUPPORT`` switches to
    the dense form; otherwise ``B`` is rebuilt over the support from the
    eigenpairs of ``K = D * (B B^H)``, dropping eigenvalues at or below
    ``s * eps * max``, so its rank stays at most the support size ``s``.
    """
    dim = basis.size
    weight = (state.diagonal().real if dense
              else np.sum(np.abs(state.reshape(dim, -1)) ** 2, axis=1))
    support = np.flatnonzero(weight)
    masks = basis[support]
    mixed = int(np.bitwise_or.reduce(masks) ^ np.bitwise_and.reduce(masks))
    by_rail = {}
    for rail, length in zip(*group):
        if (mixed >> rail) & 1:
            by_rail[rail] = by_rail.get(rail, 0.0) + length / l_phi
    if not by_rail:
        return state, dense
    s = support.size
    if not dense and s > _DENSE_SUPPORT:
        fock.check_capacity(
            _DENSE_COPIES * dim * dim,
            f"the exact monte-carlo average needs a {dim} x {dim} array",
            f"{_MC_ADVICE}; this form holds {_DENSE_COPIES} arrays of that "
            f"size at once")
        factor = state.reshape(dim, -1)
        state, dense = factor @ factor.conj().T, True
    rails = np.fromiter(by_rail, dtype=np.int64)
    rates = np.fromiter(by_rail.values(), dtype=np.float64)
    if dense:
        # rows and columns off the support are zero: damp them all alike
        state *= _coherence(basis, rails, rates)
        return state, dense
    factor = state.reshape(dim, -1)[support]
    values, vectors = np.linalg.eigh(_coherence(masks, rails, rates)
                                     * (factor @ factor.conj().T))
    keep = values > s * np.finfo(np.float64).eps * values[-1]
    rank = int(np.count_nonzero(keep))
    held = (dim * (_FACTORED_COPIES * rank + factor.shape[1])
            + _BLOCK_COPIES * s * s)
    fock.check_capacity(
        held, f"the exact monte-carlo average needs a {dim} x {rank} array",
        f"{_MC_ADVICE}; this form holds {held} amplitudes' worth (B, its "
        f"kernel temporaries, the previous B and the "
        f"eigen-decomposition's work) at once")
    state = np.zeros((dim, rank), dtype=np.complex128)
    state[support] = vectors[:, keep] * np.sqrt(values[keep])
    return state, dense


def _block(n_rails: int, elements, loaded: int) -> tuple:
    """The run's block, as ``fock.block_basis`` takes it: the groups of
    rails that the waveguide couplers connect, each with the electrons
    ``loaded`` puts on it.

    A coupler moves an electron between its two rails only, and the phase
    shifters and Coulomb couplers are diagonal, so the electron count of
    each connected group of rails never changes.  One array pass over the
    couplers gives each rail's neighbours as a mask; a search from each
    rail not yet grouped then visits every rail once.  A rail no coupler
    reaches is a group of its own.
    """
    ends = elements.ints.take((elements.kinds == BS).nonzero()[0], 0)
    linked = np.zeros((n_rails, n_rails), dtype=bool)
    linked[ends[:, 1], ends[:, 2]] = True
    near = ((linked | linked.T) @ (1 << np.arange(n_rails))).tolist()
    block, grouped = [], 0
    for rail in range(n_rails):
        if not (grouped >> rail) & 1:
            group = frontier = 1 << rail
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                reached = near[low.bit_length() - 1] & ~group
                group |= reached
                frontier |= reached
            grouped |= group
            block.append((group, (group & loaded).bit_count()))
    return tuple(block)


def _free_probabilities(circuit, loaded: int) -> np.ndarray:
    """Outcome probabilities of a circuit without Coulomb couplers.

    Such a circuit acts on each electron alone, by the ``n x n``
    single-particle unitary ``U``, and mask ``S`` has probability
    ``|det U[S, occ]|^2`` over the loaded rails ``occ``.  The orbitals
    ``U[:, occ]`` are evolved in one stretch as columns of the one-electron
    sector, whose masks ``1 << r`` are the rails in order, and lifted to the
    sector once (``fock.lift_columns``).  When more rails are loaded than
    empty, the empty rails' orbitals are lifted instead: complementary
    minors of a unitary have equal moduli, and complementing the masks of a
    sector reverses their ascending order.  The probabilities are over the
    sector, ``fock.sector_basis``.
    """
    n_rails = circuit.n_rails
    holes = 2 * loaded.bit_count() > n_rails
    rails = [r for r in range(n_rails) if ((loaded >> r) & 1) != holes]
    columns = np.zeros((n_rails, len(rails)), dtype=np.complex128)
    columns[rails, np.arange(len(rails))] = 1.0
    apply_stretch(columns, n_rails, circuit.columns, fock.sector_block(n_rails, 1))
    probabilities = np.abs(fock.lift_columns(columns)) ** 2
    return probabilities[::-1] if holes else probabilities


def outcome_probabilities(circuit, dephasing: DephasingModel | None = None):
    """Exact detector-outcome probabilities of ``circuit.expanded``.

    Returns ``(basis, p)``: ``p[j]`` is the probability, up to a common
    normalization within rounding, of reading ``basis[j]``, the masks of
    the run's block (``fock.block_basis``): those that keep the electrons
    the pumps load on each group of rails the couplers connect.  Every
    other mask has probability exactly 0.  In ``monte-carlo`` mode ``p`` is
    the diagonal of the density matrix averaged over every segment phase;
    the other modes evolve one vector, or, without a Coulomb coupler, the
    single-particle orbitals (see the module docstring).  The schedule is
    not checked here.
    """
    dephasing = dephasing or DephasingModel()
    circuit = circuit.expanded
    n_rails = circuit.n_rails
    loaded = fock.occupation_mask(
        n_rails, [src.rail for src in circuit.sources if src.emits])
    elements = circuit.columns
    # every element keeps the electron count of each coupler-connected group
    # of rails: evolve only the block of masks that the pumps' load fixes
    block = _block(n_rails, elements, loaded)
    basis = fock.block_basis(n_rails, block)
    mc = dephasing.mode == MODE_MC
    if not mc and not (elements.kinds == CC).any():
        probabilities = _free_probabilities(circuit, loaded)
        if len(block) > 1:  # the sector's other masks hold exact zeros
            sector = fock.sector_basis(n_rails, loaded.bit_count())
            probabilities = probabilities[sector.searchsorted(basis)]
        return basis, probabilities

    state = np.zeros(basis.size, dtype=np.complex128)
    state[basis.searchsorted(loaded)] = 1.0
    dense = False
    rails, lengths, positions = (
        (column.tolist() for column in circuit.wire_columns) if mc else ((), (), ()))
    # one stretch per wire position in mc mode, else one; the wire after the
    # last element is left out: a phase channel keeps the diagonal of rho
    cuts = sorted({p for p in positions if p < len(elements)})
    start = 0
    for end in cuts + [len(elements)]:
        stretch = elements[start:end]
        if stretch:
            apply_stretch(state, n_rails, stretch, block)
            if dense:
                # U rho is done; (U rho)^H = rho U^H, so U again gives U rho U^H
                state = np.conjugate(state.T, order="C")
                apply_stretch(state, n_rails, stretch, block)
        if end < len(elements):  # the wire group at end: a slice of the wire
            group = slice(bisect_left(positions, end), bisect_right(positions, end))
            state, dense = _dephase(state, dense, (rails[group], lengths[group]),
                                    basis, dephasing.l_phi)
        start = end
    if dense:
        return basis, state.diagonal().real.clip(min=0.0)
    return basis, np.sum(np.abs(state.reshape(basis.size, -1)) ** 2, axis=1)


def run_shots(circuit, n_shots: int,
              dephasing: DephasingModel | None = None,
              master_seed: int = 0,
              propagation: PropagationModel | None = None,
              allow_desync: bool = False) -> ShotHistogram:
    """Sample ``n_shots`` detector readouts of a scheduled circuit, as
    ``circuit.expanded``.

    The schedule is checked first; violations abort with
    ``CoincidenceError`` unless ``allow_desync`` overrides, in which case the
    returned histogram lists them in ``violations``, as the late
    ``ElementArrival`` entries (empty when the schedule is coincident).
    Results are deterministic in ``master_seed`` (see module docstring for
    the stream contract).  ``deterministic-factor`` mode samples
    exactly as ``off``; its analytic factor is ``budget.analyze``'s
    ``coherence_factor``.  The histogram is the whole result: shots are
    i.i.d. given the seed, so no per-shot record is kept.  ``n_shots`` and
    ``master_seed`` must be integers (numpy too, ``bool`` not), ``>= 1``
    and ``>= 0`` (``fock.require_at_least``).
    """
    fock.require_at_least(n_shots, 1, "n_shots")
    fock.require_at_least(master_seed, 0, "master_seed")
    dephasing = dephasing or DephasingModel()
    propagation = propagation or PropagationModel()
    circuit = circuit.expanded

    table = arrival_times(circuit, propagation)
    violations = check_coincidence(table, propagation.coincidence_window)
    if violations and not allow_desync:
        raise CoincidenceError(violations)

    basis, probabilities = outcome_probabilities(circuit, dephasing)
    cumulative = np.cumsum(probabilities)
    stream = np.random.default_rng(np.random.Philox(master_seed))
    total_counts = np.zeros(basis.size, dtype=np.int64)
    for start in range(0, n_shots, _SHOT_CHUNK):
        size = min(_SHOT_CHUNK, n_shots - start)
        fock.sample_counts(cumulative, stream.random(size), total_counts)

    # the block ascends, so the observed masks do too
    observed = np.flatnonzero(total_counts)
    masks = basis[observed]
    mask_counts = total_counts[observed]
    logical_counts = None
    leak_count = 0
    if circuit.registers:
        pairs = [pair for _, pair in circuit.registers]
        logical_counts = {}
        for mask, count in zip(masks.tolist(), mask_counts.tolist()):
            key = decode(mask, pairs)
            logical_counts[key] = logical_counts.get(key, 0) + count
            if "L" in key:
                leak_count += count

    return ShotHistogram(
        n_shots=n_shots,
        masks=masks,
        mask_counts=mask_counts,
        logical_counts=logical_counts,
        leak_count=leak_count,
        violations=violations,
    )
