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

The batch kernels (``mode_unitary_batch`` and the index helpers) take the
electron count and address the first axis of a ``(dim,)`` state vector or a
``(dim, m)`` batch of m columns as positions in ``sector_basis(n_rails,
k)``, the sector's masks in ascending order.  The columns are those of a
factored or a dense density matrix (``timing.outcome_probabilities``); one
basis position is one contiguous row, so the index gathers and scatters move
whole rows.

Without a Coulomb coupler every element is linear in the rail modes, so
the state is a Slater determinant of k single-particle orbitals.
``lift_columns`` turns an ``(n, k)`` array of orbitals into the sector's
amplitudes ``det(V[T, :])`` in one pass, expanding the determinant one
electron at a time over cached plans (``_lift_plan``: int32 source
positions and int8 rails per sector).  ``timing.outcome_probabilities``
takes this path in ``off`` and ``deterministic-factor`` mode when the
circuit has no ``cc``; it agrees with the sector kernels to rounding, not
bit for bit.

Readout is one counting sampler, ``sample_counts``: from the cumulative
outcome probabilities and a block of uniforms it adds to a count array, by
inverse-CDF sampling, how many uniforms fall on each basis position,
without forming a per-shot position.

``mode_unitary_batch`` and ``sample_counts`` update their arrays in place;
every other function is pure.
"""

from __future__ import annotations

import numbers
from functools import lru_cache

import numpy as np

MAX_RAILS = 24


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


def require_integer(value, what: str):
    """``value`` if an integer (numpy too, ``bool`` not), else ``ValueError``.

    The one integer rule for rails: a netlist cannot spell ``q0.5`` or
    ``qTrue``, so neither may a hand-built element, circuit or register.
    """
    if type(value) is int or (isinstance(value, numbers.Integral)
                              and not isinstance(value, bool)):
        return value
    raise ValueError(f"{what} must be an integer, got {value!r}")


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
    all 2^n masks is formed.
    """
    if not 0 <= n_electrons <= n_rails:
        raise ValueError(f"n_electrons must lie in [0, {n_rails}], "
                         f"got {n_electrons}")
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
    ``sector_basis(n_rails, n_electrons - 1)``.  Each row is built by
    peeling the lowest set bit off what is left of every mask, with one
    ``searchsorted``, so no temporary is larger than one mask per position.
    """
    basis = sector_basis(n_rails, n_electrons)
    below = sector_basis(n_rails, n_electrons - 1)
    sources = np.empty((n_electrons, basis.size), dtype=np.int32)
    rails = np.empty((n_electrons, basis.size), dtype=np.int8)
    rest = basis.copy()
    for i in range(n_electrons):
        lowest = rest & -rest
        rest ^= lowest
        rails[i] = np.bitwise_count(lowest - 1)
        lowest ^= basis
        sources[i] = below.searchsorted(lowest)
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
        for i in range(m):
            term = amplitudes.take(sources[i])
            term *= column.take(rails[i])
            if (m - 1 - i) & 1:
                lifted -= term
            else:
                lifted += term
        amplitudes = lifted
    return amplitudes


@lru_cache(maxsize=128, typed=True)
def _mode_block_indices(n_rails: int, lo: int, hi: int, n_electrons: int):
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
    check_rail(n_rails, lo)
    check_rail(n_rails, hi)
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


def mode_unitary_batch(batch: np.ndarray, n_rails: int, rails, u: np.ndarray,
                       n_electrons: int) -> None:
    """Apply a two-rail mode unitary to sector amplitudes, in place.

    ``batch`` is one ``(dim,)`` state vector or a ``(dim, m)`` batch whose
    columns the update acts on alike; its first axis follows
    ``sector_basis(n_rails, n_electrons)``.  ``u`` mixes the single-electron
    amplitudes of ``rails``, first rail first; components with both rails
    empty are untouched, components with both occupied pick up det(u), and
    hopping amplitudes carry the (-1)^k sign of the module docstring.  The
    one block update: the shot runner passes a vector or the columns of a
    density matrix.
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
    # these forms keep seeded output byte-identical to the pinned goldens
    a = batch[m10]
    b = batch[m01]
    batch[m10] = u[0, 0] * a + u[0, 1] * (signs * b)
    batch[m01] = u[1, 0] * (signs * a) + u[1, 1] * b
    if doubly_occupied:
        det = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
        batch[m11] = batch[m11] * det


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
