"""Occupation-number state engine for electrons on nanowire rails.

A register of ``n_rails`` single-mode rails is represented by a dense complex
amplitude vector over all 2^n occupation patterns.  Basis indexing convention
(fixed throughout the package, and the reference for every sign below):

* basis index ``mask``: bit ``i`` set  <=>  rail ``i`` occupied;
* the basis ket for ``mask`` is built by applying creation operators in
  increasing rail order, smallest rail index leftmost.

The second convention fixes the fermionic sign structure.  Moving a mode
operator past the creation operator of an occupied rail costs a factor -1, so
a two-rail mode unitary acting on non-adjacent rails picks up a sign
(-1)^k on its off-diagonal (hopping) amplitudes, where k counts occupied
rails strictly between the pair.  A doubly occupied pair transforms with
det(u).  Both rules are exercised against a dense second-quantized oracle in
the test suite.

Every primitive conserves electron number, so a register loaded with k
electrons never leaves the C(n, k) masks with k set bits.  The batch kernels
(``mode_unitary_batch`` and the index helpers) therefore take an optional
electron count and then address the first axis of a ``(dim,)`` state
vector or a shot-minor ``(dim, shots)`` batch as positions in
``sector_basis(n_rails, k)``, the sector's masks in ascending order; without
it they span the full 2^n space, where position and mask coincide.  In the
shot-minor layout one basis position is one contiguous row, so the index
gathers and scatters move whole rows.  Shot sampling evolves only the
sector.  Off-sector amplitudes are exact zeros, so the sector evolution does
the same floating-point work on the same amplitudes and sampled histograms
are unchanged.  ``OccupationState`` and the single-state functions always
use the full space.

All operations are pure: they return new states and never mutate their
inputs, so shots can be evaluated in parallel as long as each shot owns its
state copy and random stream.
"""

from __future__ import annotations

import numbers
from dataclasses import InitVar, dataclass
from functools import lru_cache

import numpy as np

MAX_RAILS = 24
NORM_ATOL = 1e-10
MEASURE_NORM_ATOL = 1e-6
UNITARY_ATOL = 1e-10


class CapacityError(ValueError):
    """Raised when a register exceeds the dense-simulation capacity."""


def _check_n_rails(n_rails: int) -> None:
    if n_rails < 1:
        raise ValueError(f"n_rails must be >= 1, got {n_rails}")
    if n_rails > MAX_RAILS:
        raise CapacityError(
            f"n_rails = {n_rails} exceeds the dense state-vector capacity "
            f"of {MAX_RAILS} rails"
        )


@dataclass(eq=False, repr=False)
class OccupationState:
    """Complex amplitude vector over the 2^n_rails occupation basis.

    ``amplitudes[mask]`` is the amplitude of the pattern where bit ``i`` of
    ``mask`` marks rail ``i`` occupied.  Construction normally enforces unit
    norm to within ``NORM_ATOL``; pass ``normalized=False`` to skip the check
    while assembling a state by hand.
    """

    n_rails: int
    amplitudes: np.ndarray
    normalized: InitVar[bool] = True

    def __repr__(self) -> str:
        support = int(np.count_nonzero(self.amplitudes))
        return (f"OccupationState(n_rails={self.n_rails}, "
                f"norm={self.norm():.6g}, support={support})")

    def __post_init__(self, normalized: bool) -> None:
        _check_n_rails(self.n_rails)
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (1 << self.n_rails,):
            raise ValueError(
                f"amplitude vector must have length {1 << self.n_rails} "
                f"for {self.n_rails} rails, got shape {amps.shape}"
            )
        self.amplitudes = amps
        if normalized and abs(self.norm() - 1.0) > NORM_ATOL:
            raise ValueError(
                f"state norm {self.norm():.12g} deviates from 1 by more "
                f"than {NORM_ATOL:g}"
            )

    @property
    def dim(self) -> int:
        return 1 << self.n_rails

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def copy(self) -> "OccupationState":
        return OccupationState(self.n_rails, self.amplitudes.copy(),
                               normalized=False)


def vacuum(n_rails: int) -> OccupationState:
    """All-rails-empty state: amplitude 1 on mask 0."""
    _check_n_rails(n_rails)
    amps = np.zeros(1 << n_rails, dtype=np.complex128)
    amps[0] = 1.0
    return OccupationState(n_rails, amps)


def require_integer(value, what: str):
    """``value`` if an integer (numpy too, ``bool`` not), else ``ValueError``.

    The one integer rule for rails: a netlist cannot spell ``q0.5`` or
    ``qTrue``, so neither may a hand-built element, circuit or state.
    """
    if type(value) is int or (isinstance(value, numbers.Integral)
                              and not isinstance(value, bool)):
        return value
    raise ValueError(f"{what} must be an integer, got {value!r}")


def _check_rail(n_rails: int, rail: int) -> None:
    if not 0 <= require_integer(rail, "rail index") < n_rails:
        raise ValueError(f"rail index {rail} out of range for {n_rails} rails")


def occupation_mask(n_rails: int, occupied) -> int:
    """Basis mask with bit ``rail`` set for each rail in ``occupied``."""
    _check_n_rails(n_rails)
    mask = 0
    for rail in occupied:
        _check_rail(n_rails, rail)
        mask |= 1 << rail
    return mask


def prepare_occupation(n_rails: int, occupied) -> OccupationState:
    """Basis state with one electron on each rail in ``occupied``.

    Models pump-loaded inputs: each selected rail carries exactly one
    electron, every other rail is empty.
    """
    mask = occupation_mask(n_rails, occupied)
    amps = np.zeros(1 << n_rails, dtype=np.complex128)
    amps[mask] = 1.0
    return OccupationState(n_rails, amps)


@lru_cache(maxsize=64)
def sector_basis(n_rails: int, n_electrons: int | None = None) -> np.ndarray:
    """Ascending masks with ``n_electrons`` set bits (cached, read-only).

    ``None`` selects the full space, where the basis position of a mask is
    the mask itself.  A sector is built rail by rail from the recurrence
    S(m, j) = S(m-1, j) followed by S(m-1, j-1) | 1 << (m-1), which stays
    ascending; no array of all 2^n masks is formed.
    """
    if n_electrons is None:
        basis = np.arange(1 << n_rails, dtype=np.int64)
    elif not 0 <= n_electrons <= n_rails:
        raise ValueError(f"n_electrons must lie in [0, {n_rails}], "
                         f"got {n_electrons}")
    else:
        empty = np.zeros(0, dtype=np.int64)
        # rows[j] = S(m, j); counts too low to reach n_electrons on the
        # rails still to come are dropped to empty arrays
        rows = [np.zeros(1, dtype=np.int64)] + [empty] * n_electrons
        for m in range(n_rails):
            low = max(0, n_electrons - (n_rails - m - 1))
            rows = [empty] * low + [
                np.concatenate((rows[j], rows[j - 1] | (1 << m))) if j else rows[0]
                for j in range(low, n_electrons + 1)]
        basis = rows[n_electrons]
    basis.setflags(write=False)
    return basis


@lru_cache(maxsize=128, typed=True)
def _mode_block_indices(n_rails: int, lo: int, hi: int,
                        n_electrons: int | None = None):
    """Basis-position arrays for a two-rail mode unitary on rails ``lo < hi``.

    Returns (m10, m01, m11, signs) over ``sector_basis(n_rails,
    n_electrons)``: positions of masks with only ``lo`` occupied within the
    pair, the positions of their partners with only ``hi`` occupied, masks
    with both occupied, and the (-1)^k hopping signs from occupied rails
    strictly between the pair.  Like the other index helpers it raises
    ``ValueError`` for a rail outside ``[0, n_rails)`` or not an integer;
    only valid rails are cached, and the caches are typed so that ``True``
    never finds the entry of rail 1, so the batch kernels need no rail check
    of their own.
    """
    _check_rail(n_rails, lo)
    _check_rail(n_rails, hi)
    basis = sector_basis(n_rails, n_electrons)
    lo_set = (basis >> lo) & 1
    hi_set = (basis >> hi) & 1
    m10 = np.flatnonzero((lo_set == 1) & (hi_set == 0))
    partners = basis[m10] ^ ((1 << lo) | (1 << hi))
    m01 = np.searchsorted(basis, partners)
    m11 = np.flatnonzero((lo_set == 1) & (hi_set == 1))
    between = ((1 << hi) - 1) ^ ((1 << (lo + 1)) - 1)
    parity = np.bitwise_count(basis[m10] & between) & 1
    signs = 1.0 - 2.0 * parity.astype(np.float64)
    for arr in (m10, m01, m11, signs):
        arr.setflags(write=False)
    return m10, m01, m11, signs


@lru_cache(maxsize=128, typed=True)
def rail_occupied_indices(n_rails: int, rail: int,
                          n_electrons: int | None = None) -> np.ndarray:
    """Basis positions in which ``rail`` is occupied (cached, read-only)."""
    _check_rail(n_rails, rail)
    basis = sector_basis(n_rails, n_electrons)
    idx = np.flatnonzero((basis >> rail) & 1)
    idx.setflags(write=False)
    return idx


@lru_cache(maxsize=128, typed=True)
def pair_occupied_indices(n_rails: int, rail_a: int, rail_b: int,
                          n_electrons: int | None = None) -> np.ndarray:
    """Basis positions in which both rails are occupied (cached, read-only)."""
    _check_rail(n_rails, rail_a)
    _check_rail(n_rails, rail_b)
    basis = sector_basis(n_rails, n_electrons)
    idx = np.flatnonzero((basis >> rail_a) & (basis >> rail_b) & 1)
    idx.setflags(write=False)
    return idx


def _check_mode_unitary(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=np.complex128)
    if u.shape != (2, 2):
        raise ValueError(f"mode unitary must be 2x2, got shape {u.shape}")
    err = np.max(np.abs(u.conj().T @ u - np.eye(2)))
    if err > UNITARY_ATOL:
        raise ValueError(f"matrix is not unitary (deviation {err:.3g} "
                         f"exceeds {UNITARY_ATOL:g})")
    return u


def mode_unitary_batch(batch: np.ndarray, n_rails: int, rails, u: np.ndarray,
                       n_electrons: int | None = None) -> None:
    """Apply a two-rail mode unitary to amplitudes, in place.

    ``batch`` is one ``(dim,)`` state vector or a shot-minor ``(dim, shots)``
    batch, one column per shot; its first axis follows
    ``sector_basis(n_rails, n_electrons)``: all 2^n masks by default, or the
    ``n_electrons`` sector.  Single source of truth for the block update;
    ``apply_mode_unitary`` and the shot runner's shared prefix pass one
    vector, the mc shot runner a batch.
    """
    r0, r1 = rails
    if r0 > r1:
        # reorder so mode 0 is the lower rail; conjugate u by the swap
        r0, r1 = r1, r0
        u = u[::-1, ::-1]
    m10, m01, m11, signs = _mode_block_indices(n_rails, r0, r1, n_electrons)
    doubly_occupied = m11.size > 0
    if batch.ndim == 2:
        signs = signs[:, np.newaxis]
    # out-of-place products with a scalar coefficient: numpy rounds an
    # in-place or array-by-array complex product of a one-amplitude block
    # differently from a long one, and sector blocks are often that short;
    # these forms keep the sector evolution bit for bit equal to the full one
    a = batch[m10]
    b = batch[m01]
    batch[m10] = u[0, 0] * a + u[0, 1] * (signs * b)
    batch[m01] = u[1, 0] * (signs * a) + u[1, 1] * b
    if doubly_occupied:
        det = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
        batch[m11] = batch[m11] * det


def apply_mode_unitary(state: OccupationState, rails, u) -> OccupationState:
    """Second-quantized action of a 2x2 mode unitary on a rail pair.

    ``u`` mixes the single-electron amplitudes of ``rails`` (first rail of
    the pair = first row/column of ``u``).  Components with both rails empty
    are untouched, components with both occupied pick up det(u), and hopping
    amplitudes between non-adjacent rails carry the (-1)^k sign for the k
    occupied rails strictly between the pair.  Electron number per basis
    component and total norm are preserved.
    """
    r0, r1 = rails
    if r0 == r1:
        raise ValueError(f"rail indices must be distinct, got ({r0}, {r1})")
    for r in (r0, r1):
        _check_rail(state.n_rails, r)
    u = _check_mode_unitary(u)
    amplitudes = state.amplitudes.copy()
    mode_unitary_batch(amplitudes, state.n_rails, (r0, r1), u)
    return OccupationState(state.n_rails, amplitudes, normalized=False)


def apply_diagonal_phase(state: OccupationState, phase_of_mask) -> OccupationState:
    """Multiply each amplitude by exp(i * phase_of_mask(mask)).

    ``phase_of_mask`` is either a callable from basis mask to radians or a
    precomputed array of per-mask phases.  Norm is preserved exactly.
    """
    dim = state.dim
    if callable(phase_of_mask):
        phases = np.fromiter((float(phase_of_mask(m)) for m in range(dim)),
                             dtype=np.float64, count=dim)
    else:
        phases = np.asarray(phase_of_mask, dtype=np.float64)
        if phases.shape != (dim,):
            raise ValueError(f"phase array must have length {dim}, "
                             f"got shape {phases.shape}")
    return OccupationState(state.n_rails, state.amplitudes * np.exp(1j * phases),
                           normalized=False)


def sample_masks(cumulative: np.ndarray, uniforms) -> np.ndarray:
    """Inverse-CDF draw of one basis position per uniform in ``[0, 1)``.

    ``cumulative`` is a running sum of probabilities over the basis (its
    first axis): either one 1-D distribution shared by every uniform, or a
    shot-minor ``(dim, shots)`` array with one column per uniform, as
    ``np.cumsum(..., axis=0)`` gives.
    Uniform ``u`` selects the first position whose cumulative weight exceeds
    ``u * total`` (``searchsorted`` with ``side="right"``), so a position of
    zero probability is never returned, not even for ``u == 0.0``.  In the
    full basis positions are masks; over a sector, ``sector_basis`` maps
    them back.  Zero-probability masks only repeat a cumulative value, so a
    sector draw selects the same mask as the full-space draw.
    """
    cumulative = np.asarray(cumulative)
    totals = cumulative[-1]
    if not np.all(totals > 0.0):
        raise ValueError("cannot sample from an all-zero probability vector")
    draws = np.asarray(uniforms) * totals
    if cumulative.ndim == 1:
        masks = np.searchsorted(cumulative, draws, side="right")
    else:
        masks = (cumulative <= draws).sum(axis=0)
    return np.minimum(masks, cumulative.shape[0] - 1)


def measure_all(state: OccupationState, rng_stream):
    """Projective occupation readout of every rail.

    Samples a basis mask with probability |amplitude|^2 and returns
    ``(mask, collapsed_state)``.  Mirrors single-shot electrometer detection:
    the post-measurement state is the sampled basis state.
    """
    norm = state.norm()
    if abs(norm - 1.0) > MEASURE_NORM_ATOL:
        raise ValueError(
            f"invalid state: norm {norm:.9g} deviates from 1 by more than "
            f"{MEASURE_NORM_ATOL:g}; normalize before measuring"
        )
    mask = int(sample_masks(np.cumsum(state.probabilities()),
                            rng_stream.random()))
    collapsed = np.zeros(state.dim, dtype=np.complex128)
    collapsed[mask] = 1.0
    return mask, OccupationState(state.n_rails, collapsed)


def fidelity(a: OccupationState, b: OccupationState) -> float:
    """|<a|b>|^2, insensitive to global phase."""
    if a.n_rails != b.n_rails:
        raise ValueError(f"rail count mismatch: {a.n_rails} vs {b.n_rails}")
    overlap = np.vdot(a.amplitudes, b.amplitudes)
    return float(min(abs(overlap) ** 2, 1.0))
