"""Electron-number sector engine for electrons on nanowire rails.

Pumps load a fixed set of rails and every primitive conserves electron
number, so a register of ``n_rails`` single-mode rails loaded with ``k``
electrons never leaves the C(n, k) occupation patterns with ``k`` set bits.
Its state is a complex amplitude vector over that sector only.  Basis
convention (fixed throughout the package, and the reference for every sign
below):

* basis mask: bit ``i`` set  <=>  rail ``i`` occupied;
* the basis ket for ``mask`` is built by applying creation operators in
  increasing rail order, smallest rail index leftmost.

The second convention fixes the fermionic sign structure.  Moving a mode
operator past the creation operator of an occupied rail costs a factor -1, so
a two-rail mode unitary acting on non-adjacent rails picks up a sign
(-1)^k on its off-diagonal (hopping) amplitudes, where k counts occupied
rails strictly between the pair.  A doubly occupied pair transforms with
det(u).  Both rules are exercised against a dense second-quantized oracle
(``gates.build_dense_unitary``) in the test suite.

The batch kernels take the electron count and address the first axis of a
``(dim,)`` state vector or a ``(dim, m)`` batch of m columns as positions in
``sector_basis(n_rails, k)``, the sector's masks in ascending order.  The
columns are those of a factored or a dense density matrix
(``timing.outcome_probabilities``), or single-particle orbitals: the
one-electron sector ``sector_basis(n_rails, 1)`` is the masks ``1 << r``
in rail order.  One basis position is one contiguous row, so a gather
moves whole rows.  ``apply_mode_unitaries`` applies a sequence of two-rail
mode unitaries, with the phases that act between them, in one call: on a
sector of at most ``_MAX_ROW_MASKS`` masks each unitary goes in partner
form, ``x <- a * x + b * x[partner]``, five array operations, and
otherwise each is one ``mode_unitary_batch``, which updates only the
positions of its pair's cached plan (``_pair_plan``).  The stretch kernel
``gates.apply_stretch`` turns elements into these unitaries and phases.

Without a Coulomb coupler every element is linear in the rail modes, so
the state is a Slater determinant of k single-particle orbitals.
``lift_columns`` turns an ``(n, k)`` array of orbitals, evolved by the
stretch kernel over the one-electron sector, into the sector's amplitudes
``det(V[T, :])`` in one pass, expanding the determinant one electron at a
time over cached plans (``_lift_plan``: int32 source positions and int8
rails per sector), a block of masks at a time.
``timing.outcome_probabilities`` takes this path in ``off`` and
``deterministic-factor`` mode when the circuit has no ``cc``; it agrees
with the sector path to rounding, not bit for bit.

Capacity: a run's work and memory grow with its sector, C(n, k), not with
the rail count, so the sector is what is bounded.  ``sector_basis``
refuses a sector of more than ``MAX_AMPLITUDES`` (2^24) masks with
``CapacityError``, checked with ``math.comb`` before it allocates; every
sector-sized array of a run is built after its ``sector_basis`` call, and
``timing``'s monte-carlo forms count what they hold against the same cap
through ``check_capacity``.  The rail count is a representation limit only:
a mask is an int64 whose bit 63 is the sign, so ``MAX_RAILS`` is 63.  The
cap counts amplitudes, 16 bytes each, 256 MiB at the cap.  It does not
count the arrays a run builds beside them, 8 bytes per mask each: the
basis, the probabilities, their running sum and the counts (512 MiB at the
cap).  Nor does it count the free path's cached lift plans, 5 bytes per
electron per mask of every sector the lift goes through: 480 MiB at 24
rails with 12 electrons and 2.0 GiB at 26 rails with 13 electrons, both
admitted.  Nor does it count the cached pair indices: at 24 rails with 12
electrons one ``_pair_plan`` entry is 22.1 MB (2.83 GB for its 128
entries), one ``pair_occupied_indices`` entry 5.2 MB (0.66 GB for 128)
and one ``rail_occupied_indices`` entry 10.8 MB (0.26 GB for 24 rails),
all computed figures.

Readout is one counting sampler, ``sample_counts``: from the cumulative
outcome probabilities and a block of uniforms it adds to a count array, by
inverse-CDF sampling, how many uniforms fall on each basis position,
without forming a per-shot position.

``apply_mode_unitaries``, ``mode_unitary_batch`` and ``sample_counts``
update their arrays in place; every other function is pure.
"""

from __future__ import annotations

import math
import numbers
from functools import lru_cache

import numpy as np

# a mask is an int64 whose bit 63 is the sign, so rails q0 to q62
MAX_RAILS = 63
# the one capacity rule: no sector and no monte-carlo form beyond this many
# complex amplitudes (256 MiB)
MAX_AMPLITUDES = 1 << 24
# masks per block of the lift and of its plans' construction, whose
# temporaries hold up to 48 bytes a mask
_LIFT_BLOCK = 1 << 12
# apply_mode_unitaries uses partner rows on a sector of at most
# _MAX_ROW_MASKS masks, which also bounds the _partner_row cache.  Rows
# against one position update per unitary on a 2-vCPU Xeon: 600 random
# primitives (222 couplers) took 3.7 against 5.4 ms over 70 masks, 5.5
# against 7.2 ms over 252 and 7.1 against 5.6 ms over 462.  Above the
# bound position updates stay: the per-coupler work alone (warm tables, one
# vector, best of 20) took 113 against 66 us over 12870 masks, 795 against
# 299 us over 48620 and 4321 against 1724 us over 184756
_MAX_ROW_MASKS = 256


class CapacityError(ValueError):
    """Raised when a run needs more than ``MAX_AMPLITUDES`` amplitudes, and
    by the dense test oracle above ``gates.MAX_DENSE_RAILS`` rails."""


def check_capacity(amplitudes: int, needs: str, advice: str = "") -> None:
    """``CapacityError`` if ``amplitudes`` exceed ``MAX_AMPLITUDES``.

    The message is ``needs`` (what asks for that many), the cap, then
    ``advice``.
    """
    if amplitudes > MAX_AMPLITUDES:
        raise CapacityError(f"{needs}, above the cap of 2^24 amplitudes "
                            f"(256 MiB){advice}")


def _check_n_rails(n_rails: int) -> None:
    if not 1 <= n_rails <= MAX_RAILS:
        raise ValueError(f"rail count {n_rails} outside [1, {MAX_RAILS}]")


def require_integer(value, what: str):
    """``value`` if an integer (numpy too, ``bool`` not), else ``ValueError``.

    The one integer rule for rails, shot counts and seeds: a netlist cannot
    spell ``q0.5`` or ``qTrue``, so neither may a hand-built element,
    circuit or register, and a shot count or a seed of ``2.5`` or ``True``
    is refused rather than truncated or read as 1.
    """
    if type(value) is int or (isinstance(value, numbers.Integral)
                              and not isinstance(value, bool)):
        return value
    raise ValueError(f"{what} must be an integer, got {value!r}")


def require_float(value, what: str) -> float:
    """``value`` as a ``float`` (numpy scalars and numeric strings too), else
    ``ValueError``.

    The one number rule for element angles and lengths, segment lengths
    and pump delays: each is stored as the ``float`` it is checked as, so a
    ``float32`` runs at the value it holds, in double precision.
    """
    if type(value) is float:
        return value
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{what} must be a number, got {value!r}") from None


def check_rail(n_rails: int, rail: int) -> None:
    """``ValueError`` unless ``rail`` is an integer in ``[0, n_rails)``."""
    if not 0 <= require_integer(rail, "rail index") < n_rails:
        raise ValueError(f"rail index {rail} out of range for {n_rails} rails")


def occupation_mask(n_rails: int, occupied) -> int:
    """Basis mask with bit ``rail`` set for each rail in ``occupied``."""
    _check_n_rails(n_rails)
    mask = 0
    for rail in occupied:
        check_rail(n_rails, rail)
        mask |= 1 << rail
    return mask


@lru_cache(maxsize=64)
def sector_basis(n_rails: int, n_electrons: int) -> np.ndarray:
    """Ascending masks with ``n_electrons`` set bits (cached, read-only).

    The sector is built rail by rail from the recurrence S(m, j) = S(m-1, j)
    followed by S(m-1, j-1) | 1 << (m-1), which stays ascending; no array of
    all 2^n masks is formed.  A sector of more than ``MAX_AMPLITUDES``
    masks raises ``CapacityError`` before anything is allocated.
    """
    _check_n_rails(n_rails)
    if not 0 <= n_electrons <= n_rails:
        raise ValueError(f"n_electrons must lie in [0, {n_rails}], "
                         f"got {n_electrons}")
    size = math.comb(n_rails, n_electrons)
    check_capacity(size, f"the {n_electrons}-electron sector of {n_rails} "
                         f"rails has C({n_rails}, {n_electrons}) = {size} "
                         f"amplitudes")
    empty = np.zeros(0, dtype=np.int64)
    # rows[j] = S(m, j); counts too low to reach n_electrons on the rails
    # still to come are dropped to empty arrays
    rows = [np.zeros(1, dtype=np.int64)] + [empty] * n_electrons
    for m in range(n_rails):
        low = max(0, n_electrons - (n_rails - m - 1))
        rows = [empty] * low + [
            np.concatenate((rows[j], rows[j - 1] | (1 << m))) if j else rows[0]
            for j in range(low, n_electrons + 1)]
    basis = rows[n_electrons]
    basis.setflags(write=False)
    return basis


@lru_cache(maxsize=64, typed=True)
def _lift_plan(n_rails: int, n_electrons: int):
    """Laplace-expansion plan into the ``n_electrons`` sector (cached, read-only).

    Returns ``(sources, rails)``, two ``(n_electrons, C(n_rails,
    n_electrons))`` arrays.  For the mask ``T`` at position ``j`` of
    ``sector_basis(n_rails, n_electrons)``, ``rails[i, j]`` (int8) is
    ``t_i``, the ``i``-th set bit of ``T`` counted from the lowest, and
    ``sources[i, j]`` (int32) the position of ``T`` without ``t_i`` in
    ``sector_basis(n_rails, n_electrons - 1)``.  The rows are built a
    block of ``_LIFT_BLOCK`` masks at a time, by peeling the lowest set bit
    off what is left of every mask, with one ``searchsorted``, so no
    temporary is larger than a block.
    """
    basis = sector_basis(n_rails, n_electrons)
    below = sector_basis(n_rails, n_electrons - 1)
    sources = np.empty((n_electrons, basis.size), dtype=np.int32)
    rails = np.empty((n_electrons, basis.size), dtype=np.int8)
    for start in range(0, basis.size, _LIFT_BLOCK):
        block = slice(start, start + _LIFT_BLOCK)
        masks = basis[block]
        rest = masks.copy()
        for i in range(n_electrons):
            lowest = rest & -rest
            rest ^= lowest
            rails[i, block] = np.bitwise_count(lowest - 1)
            lowest ^= masks
            sources[i, block] = below.searchsorted(lowest)
    sources.setflags(write=False)
    rails.setflags(write=False)
    return sources, rails


def lift_columns(columns: np.ndarray) -> np.ndarray:
    """Sector amplitudes of the Slater determinant with these orbitals.

    ``columns`` is an ``(n_rails, k)`` array; column ``j`` holds the
    single-particle amplitudes, over the rails, of the electron created
    ``j``-th.  Returns ``a`` over ``sector_basis(n_rails, k)`` with
    ``a[T] = det(columns[T, :])``, the rows of ``T`` in ascending order: by
    the creation-order convention that is the amplitude of mask ``T``.  The
    determinant is expanded along its last column, one electron at a time:

        w_m[T] = sum_i (-1)^(m-1-i) w_{m-1}[T without t_i] columns[t_i, m-1]

    over ``T`` in the ``m``-electron sector, ``t_i`` its ``i``-th set bit,
    starting from ``w_0 = [1]``; ``_lift_plan`` holds the gathers.
    """
    n_rails, n_electrons = columns.shape
    amplitudes = np.ones(1, dtype=np.complex128)
    for m in range(1, n_electrons + 1):
        sources, rails = _lift_plan(n_rails, m)
        column = columns[:, m - 1]
        lifted = np.zeros(sources.shape[1], dtype=np.complex128)
        # a block of masks at a time, so the gathered terms stay small
        for start in range(0, lifted.size, _LIFT_BLOCK):
            block = slice(start, start + _LIFT_BLOCK)
            out = lifted[block]
            for i in range(m):
                term = amplitudes.take(sources[i, block])
                term *= column.take(rails[i, block])
                if (m - 1 - i) & 1:
                    out -= term
                else:
                    out += term
        amplitudes = lifted
    return amplitudes


@lru_cache(maxsize=128, typed=True)
def _pair_plan(n_rails: int, lo: int, hi: int, n_electrons: int):
    """Partner plan of the rail pair ``lo < hi`` (cached, read-only).

    Returns ``(positions, signs)`` over ``sector_basis(n_rails,
    n_electrons)``.  ``positions`` (intp) lists the masks with only ``lo``
    occupied within the pair, then their partners, the same masks with the
    electron on ``hi``, then the masks with both occupied; ``signs``
    (float64) holds the (-1)^k hopping sign of each ``lo``-only mask, k
    counting occupied rails strictly between the pair.  Every other mask is
    its own partner.  A plan holds 24 bytes per one-electron pair of masks
    and 8 per doubly occupied mask, C(n-2, k-1) pairs and C(n-2, k-2)
    masks.  int32 positions and int8 signs would hold fewer bytes, but
    every position update would then convert them: the 9-element
    readout_narrow benchmark circuit took about 0.08 ms to evolve with them
    and 0.05 ms with these.  Like the other index helpers it raises
    ``ValueError`` for a rail outside ``[0, n_rails)`` or not an integer,
    and for one rail twice; only valid rails are cached, and the caches are
    typed so that ``True`` never finds the entry of rail 1, so the batch
    kernels need no rail check of their own.
    """
    check_rail(n_rails, lo)
    check_rail(n_rails, hi)
    if lo == hi:
        raise ValueError(f"a mode unitary needs two distinct rails, "
                         f"got rail {lo} twice")
    basis = sector_basis(n_rails, n_electrons)
    lo_set = (basis >> lo) & 1
    hi_set = (basis >> hi) & 1
    lo_only = np.flatnonzero(lo_set > hi_set)
    hi_only = basis.searchsorted(basis[lo_only] ^ ((1 << lo) | (1 << hi)))
    both = np.flatnonzero(lo_set & hi_set)
    between = ((1 << hi) - 1) ^ ((1 << (lo + 1)) - 1)
    parity = np.bitwise_count(basis[lo_only] & between) & 1
    positions = np.concatenate((lo_only, hi_only, both))
    signs = 1.0 - 2.0 * parity
    positions.setflags(write=False)
    signs.setflags(write=False)
    return positions, signs


@lru_cache(maxsize=128, typed=True)
def rail_occupied_indices(n_rails: int, rail: int,
                          n_electrons: int) -> np.ndarray:
    """Basis positions in which ``rail`` is occupied (cached, read-only)."""
    check_rail(n_rails, rail)
    basis = sector_basis(n_rails, n_electrons)
    idx = np.flatnonzero((basis >> rail) & 1)
    idx.setflags(write=False)
    return idx


@lru_cache(maxsize=128, typed=True)
def pair_occupied_indices(n_rails: int, rail_a: int, rail_b: int,
                          n_electrons: int) -> np.ndarray:
    """Basis positions in which both rails are occupied (cached, read-only)."""
    check_rail(n_rails, rail_a)
    check_rail(n_rails, rail_b)
    basis = sector_basis(n_rails, n_electrons)
    idx = np.flatnonzero((basis >> rail_a) & (basis >> rail_b) & 1)
    idx.setflags(write=False)
    return idx


@lru_cache(maxsize=128, typed=True)
def _partner_row(n_rails: int, lo: int, hi: int, n_electrons: int):
    """Partner row and coefficient classes of the rail pair ``lo < hi``
    (cached, read-only).

    Returns ``(partner, classes)`` over ``sector_basis(n_rails,
    n_electrons)``: ``partner`` (intp) holds, for every position, that of
    the same mask with the pair's one electron on the other rail, or the
    position itself with none or two.  ``classes`` is a ``(2, dim)`` intp
    array; ``classes[0]`` picks each mask's own coefficient and
    ``classes[1]`` its partner's from a unitary's ``_coefficients`` row.
    24 bytes a mask: ``apply_mode_unitaries`` builds them only for sectors
    of at most ``_MAX_ROW_MASKS`` masks, so the cache holds at most 768 KiB.
    """
    positions, signs = _pair_plan(n_rails, lo, hi, n_electrons)
    hops = signs.size
    lo_only, hi_only = positions[:hops], positions[hops:2 * hops]
    partner = np.arange(sector_basis(n_rails, n_electrons).size)
    partner[lo_only] = hi_only
    partner[hi_only] = lo_only
    classes = np.empty((2, partner.size), dtype=np.intp)
    classes[0] = 0
    classes[0, lo_only] = 1
    classes[0, hi_only] = 2
    classes[0, positions[2 * hops:]] = 3
    classes[1] = 4
    negative = signs < 0.0
    classes[1, lo_only] = 5 + negative
    classes[1, hi_only] = 7 + negative
    partner.setflags(write=False)
    classes.setflags(write=False)
    return partner, classes


def _coefficients(u: np.ndarray) -> np.ndarray:
    """Per unitary of ``(c, 2, 2)`` u on a pair, lower rail first, the
    coefficients its ``_partner_row`` classes pick: 1, u00, u11, det(u), 0,
    u01, -u01, u10, -u10."""
    det = u[:, 0, 0] * u[:, 1, 1] - u[:, 0, 1] * u[:, 1, 0]
    return np.stack((np.ones(len(u)), u[:, 0, 0], u[:, 1, 1], det,
                     np.zeros(len(u)), u[:, 0, 1], -u[:, 0, 1], u[:, 1, 0],
                     -u[:, 1, 0]), axis=1)


def _apply_phase(batch: np.ndarray, n_rails: int, rails, angle: float,
                 n_electrons: int) -> None:
    """``exp(i angle)`` on the masks that occupy every rail of ``rails``."""
    idx = (rail_occupied_indices(n_rails, rails[0], n_electrons)
           if len(rails) == 1 else
           pair_occupied_indices(n_rails, *rails, n_electrons))
    # out of place: numpy rounds an in-place complex product of one
    # amplitude differently from a longer one
    batch[idx] = batch[idx] * complex(math.cos(angle), math.sin(angle))


def apply_mode_unitaries(batch: np.ndarray, n_rails: int, pairs, u,
                         n_electrons: int, phases=()) -> None:
    """Apply two-rail mode unitaries in turn to sector amplitudes, in place.

    ``batch`` is one ``(dim,)`` state vector or a ``(dim, m)`` batch whose
    columns the update acts on alike; its first axis follows
    ``sector_basis(n_rails, n_electrons)``.  Unitary ``i`` is the 2x2
    ``u[i]`` (``u`` is a ``(c, 2, 2)`` array or the nested sequence of one)
    on the rails ``pairs[i]``, first rail first, acting as
    ``mode_unitary_batch`` does.  ``phases`` lists ``(before, rails,
    angle)`` in order of ``before``: ``exp(i angle)`` multiplies the masks
    that occupy every rail of ``rails`` (one rail or two) just before
    unitary ``before``, or after the last one when ``before == len(pairs)``.

    On a sector of 2 to ``_MAX_ROW_MASKS`` masks each unitary goes in
    partner form, ``x <- a * x + b * x[partner]``, in place with one
    gathered copy of ``batch``; the rows ``a`` and ``b`` are taken from nine
    numbers per unitary by the pair's cached ``_partner_row``.
    Otherwise each unitary is one ``mode_unitary_batch``, which touches
    only the masks with an electron on its pair.  A rail outside ``[0,
    n_rails)`` raises ``ValueError`` from the index helpers before the
    unitary or the phase that holds it changes ``batch``.
    """
    dim = sector_basis(n_rails, n_electrons).size
    count = len(pairs)
    u = np.array(u, dtype=np.complex128).reshape(count, 2, 2)
    rows = 1 < dim <= _MAX_ROW_MASKS
    if rows:
        # mode 0 is the lower rail: conjugate a reversed pair's u by the swap
        swapped = np.array([r0 > r1 for r0, r1 in pairs])
        coefficients = _coefficients(np.where(
            swapped[:, np.newaxis, np.newaxis], u[:, ::-1, ::-1], u))
        scale = np.empty((2, dim), dtype=np.complex128)
        # views of the two rows of scale, a column against a batch
        a, b = scale[:, :, np.newaxis] if batch.ndim == 2 else scale
        hop = np.empty_like(batch)
    phases = iter(phases)
    phase = next(phases, None)
    for i in range(count):
        while phase is not None and phase[0] == i:
            _apply_phase(batch, n_rails, phase[1], phase[2], n_electrons)
            phase = next(phases, None)
        if rows:
            r0, r1 = pairs[i]
            partner, classes = (_partner_row(n_rails, r0, r1, n_electrons)
                                if r0 < r1 else
                                _partner_row(n_rails, r1, r0, n_electrons))
            coefficients[i].take(classes, out=scale)
            # mode "clip" is not buffered: the gather writes into hop
            batch.take(partner, axis=0, out=hop, mode="clip")
            hop *= b
            batch *= a
            batch += hop
        else:
            mode_unitary_batch(batch, n_rails, pairs[i], u[i], n_electrons)
    while phase is not None:
        _apply_phase(batch, n_rails, phase[1], phase[2], n_electrons)
        phase = next(phases, None)


def mode_unitary_batch(batch: np.ndarray, n_rails: int, rails, u: np.ndarray,
                       n_electrons: int) -> None:
    """Apply a two-rail mode unitary to sector amplitudes, in place.

    ``batch`` is one ``(dim,)`` state vector or a ``(dim, m)`` batch whose
    columns the update acts on alike; its first axis follows
    ``sector_basis(n_rails, n_electrons)``.  ``u`` mixes the single-electron
    amplitudes of ``rails``, first rail first; components with both rails
    empty are untouched, components with both occupied pick up det(u), and
    hopping amplitudes carry the (-1)^k sign of the module docstring.  It
    updates only the positions of the pair's ``_pair_plan``.
    """
    r0, r1 = rails
    if r0 > r1:
        # reorder so mode 0 is the lower rail; conjugate u by the swap
        r0, r1 = r1, r0
        u = u[::-1, ::-1]
    positions, signs = _pair_plan(n_rails, r0, r1, n_electrons)
    hops = signs.size
    lo_only, hi_only = positions[:hops], positions[hops:2 * hops]
    both = positions[2 * hops:]
    if batch.ndim == 2:
        signs = signs[:, np.newaxis]
    # out-of-place products with a scalar coefficient: numpy rounds an
    # in-place or array-by-array complex product of a one-amplitude block
    # differently from a long one, and these blocks are often that short
    a = batch[lo_only]
    b = batch[hi_only]
    batch[lo_only] = u[0, 0] * a + u[0, 1] * (signs * b)
    batch[hi_only] = u[1, 0] * (signs * a) + u[1, 1] * b
    if both.size:
        det = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
        batch[both] = batch[both] * det


def sample_counts(cumulative: np.ndarray, uniforms, out: np.ndarray) -> np.ndarray:
    """Add to ``out`` how many of ``uniforms`` fall on each basis position.

    ``cumulative`` is a running sum of probabilities over the basis, one
    1-D distribution shared by every uniform in ``[0, 1)``.  Uniform ``u``
    selects the first position whose cumulative weight exceeds
    ``u * total``, so a position of zero probability is never counted, not
    even for ``u == 0.0``.  A draw that rounds up to the total, which only a
    subnormal total allows, falls on the last position of nonzero weight.
    Over a sector, ``sector_basis`` maps positions back to masks.
    Zero-probability masks only repeat a cumulative value, so a draw over a
    sector selects the same mask as one over all 2^n masks would.

    Only the counts are formed, from the draws ``u * total`` sorted: the
    shorter of the two sorted arrays is searched in the longer one.  With
    no more positions than draws, the number of draws below each cumulative
    entry marks the edges between positions; otherwise each draw is placed
    in ``cumulative`` and the runs of equal positions are counted, so only
    the positions drawn are touched.  Both make the same comparisons as
    placing each draw on its own, so the counts are the same.

    ``out`` is an integer array of ``cumulative.size``, returned; a run
    adds chunk after chunk to it.
    """
    cumulative = np.asarray(cumulative)
    total = cumulative[-1]
    if not total > 0.0:
        raise ValueError("cannot sample from an all-zero probability vector")
    # the last position of nonzero weight: the first to reach the total
    last = int(np.searchsorted(cumulative, total, side="left"))
    draws = np.ravel(uniforms) * total
    draws.sort()
    if cumulative.size <= draws.size:
        # edges[j] counts the draws that fall before position j, and every
        # draw falls before the position after the last of nonzero weight
        edges = np.zeros(cumulative.size + 1, dtype=np.intp)
        edges[1:last + 1] = np.searchsorted(draws, cumulative[:last], side="left")
        edges[last + 1:] = draws.size
        out += np.diff(edges)
        return out
    if draws.size:
        positions = np.searchsorted(cumulative, draws, side="right")
        np.minimum(positions, last, out=positions)
        # the sorted draws give ascending positions: one run per position
        starts = np.flatnonzero(np.diff(positions, prepend=-1))
        out[positions[starts]] += np.diff(starts, append=positions.size)
    return out
