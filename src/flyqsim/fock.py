"""Electron-number block engine for electrons on nanowire rails.

Pumps load a fixed set of rails and every primitive conserves electron
number, so a register of ``n_rails`` single-mode rails loaded with ``k``
electrons never leaves its sector, the C(n, k) occupation patterns with
``k`` set bits (``sector_basis``).  It keeps more: a waveguide coupler moves
an electron between its two rails only and the other primitives are
diagonal, so the electron count of each group of rails the couplers connect
is fixed too.  A run's state is a complex amplitude vector over its block,
the masks that hold each group's count (``block_basis``), which is the
sector when one group holds every rail.  Basis convention (fixed throughout
the package, and the reference for every sign below):

* basis mask: bit ``i`` set  <=>  rail ``i`` occupied;
* the basis ket for ``mask`` is built by applying creation operators in
  increasing rail order, smallest rail index leftmost.

The second convention fixes the fermionic sign structure.  Moving a mode
operator past the creation operator of an occupied rail costs a factor -1, so
a two-rail mode unitary acting on non-adjacent rails picks up a sign
(-1)^k on its off-diagonal (hopping) amplitudes, where k counts occupied
rails strictly between the pair.  A doubly occupied pair transforms with
det(u).  Both rules are exercised against dense second-quantized oracles
in the test suite (``tests/oracles.py``).

The batch kernels take a block and address the first axis of a ``(dim,)``
state vector or a ``(dim, m)`` batch of m columns as positions in
``block_basis(n_rails, block)``, the block's masks in ascending order.  A
block is a tuple of ``(group, count)`` pairs, a mask of rails and the
electrons on them, the groups covering the rails; it is hashable, so it
keys the caches below, and ``sector_block(n_rails, k)`` is the whole
sector.  Its masks are the sorted product of each group's sector, spread
onto the group's rails, so the sector is never formed.  The columns are
those of a factored or a dense density matrix
(``timing.outcome_probabilities``), or single-particle orbitals: the
one-electron sector ``sector_basis(n_rails, 1)`` is the masks ``1 << r``
in rail order.  One basis position is one contiguous row, so a gather
moves whole rows.  ``apply_mode_unitaries`` applies a stretch compiled by
``gates.apply_stretch``, its two-rail mode unitaries and the diagonal
phases between them, in one call.  On a block of at most
``_MAX_ROW_MASKS`` masks each unitary goes in partner form, ``x <- A * x +
B * x[partner]``, one gather, two products and a sum: the partner rows of
every rail pair within a group are built once, in one pass, and cached per
block (``_sector_rows``), each unitary's rows ``A`` and ``B`` are picked
from its nine coefficients a block at a time, and the phases after a
unitary fold into its rows, so no phase gets a call of its own; the phases
before the first unitary are one diagonal product.  Otherwise each unitary
is one ``mode_unitary_batch``, which updates only the positions of its
pair's cached plan (``_pair_plan``), and each phase one product on the
masks it occupies.  A unitary on rails of two groups, whose partners lie
outside the block, is refused.

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

Capacity: a run's work and memory grow with its block, not with the rail
count, so the block is what is bounded.  ``block_basis`` refuses a block of
more than ``MAX_AMPLITUDES`` (2^24) masks with ``CapacityError``, counted
with ``math.comb`` per group before it allocates, and ``sector_basis`` a
sector; every block-sized array of a run is built after its
``block_basis`` call (the free path's lift, after each ``sector_basis``
call), and ``timing``'s monte-carlo forms count what they hold against the
same cap through ``check_capacity``.  The rail count is a representation
limit only: a mask is an int64 whose bit 63 is the sign, so ``MAX_RAILS``
is 63.  The cap counts amplitudes, 16 bytes each, 256 MiB at the cap.  It
does not count the arrays a run builds beside them, 8 bytes per mask each:
the basis, the probabilities, their running sum and the counts (512 MiB at
the cap).  Nor does it count the free path's cached lift plans, 5 bytes per
electron per mask of every sector the lift goes through: 480 MiB at 24
rails with 12 electrons and 2.0 GiB at 26 rails with 13 electrons, both
admitted.  Nor does it count the cached pair indices of the position
updates, which run only above ``_MAX_ROW_MASKS`` masks: at 24 rails with
12 electrons one ``_pair_plan`` entry is 22.1 MB (2.83 GB for its 128
entries), one ``pair_occupied_indices`` entry 5.2 MB (0.66 GB for 128)
and one ``rail_occupied_indices`` entry 10.8 MB (0.26 GB for 24 rails),
all computed figures.  The partner form counts what it builds through
``check_capacity``: the partner rows of a block's pairs when they are
built, 40 bytes a mask per pair, of which the cached entry keeps 10 (1.27
MB at 63 rails with one electron, the largest entry, and at most 10.2 MB
for the cache's 8), and per call 56 bytes a mask per unitary of a block
and 56 per phase placed at a time (the masks it occupies, their places in
the rows and their turns), 64 of each at most, beside the compiled
stretch, 240 bytes a unitary and 40 a phase.  For 1000 couplers over all
45 pairs of 10 rails with 1000 phase shifters and 510 Coulomb couplers on
252 masks that is 0.46 MB for the rows of the pairs and 2.08 MB for the
call, and a cold call peaks at 1.82 MB.

Readout is one counting sampler, ``sample_counts``: from the cumulative
outcome probabilities and a batch of uniforms it adds to a count array, by
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
# the one capacity rule: no sector, no block and no monte-carlo form beyond
# this many complex amplitudes (256 MiB)
MAX_AMPLITUDES = 1 << 24
# masks per block of the lift and of its plans' construction, whose
# temporaries hold up to 48 bytes a mask
_LIFT_BLOCK = 1 << 12
# apply_mode_unitaries uses partner rows on a block of at most
# _MAX_ROW_MASKS masks, which also bounds what they hold.  Rows against one
# position update per unitary on a 2-vCPU Xeon, measured with the earlier
# rows cached per pair: 600 random primitives (222 couplers) took 3.7
# against 5.4 ms over 70 masks, 5.5 against 7.2 ms over 252 and 7.1
# against 5.6 ms over 462.  Above the bound position updates stay: the
# per-coupler work alone (warm tables, one vector, best of 20) took 113
# against 66 us over 12870 masks, 795 against 299 us over 48620 and 4321
# against 1724 us over 184756
_MAX_ROW_MASKS = 256
# in partner form apply_mode_unitaries builds the rows of this many
# unitaries at a time, at most 64 x 256 masks x 56 bytes (896 KiB), and
# places this many phases at a time, at most 64 x 256 x 56 bytes (896 KiB),
# beside the state
_BLOCK_COUPLERS = 64


class CapacityError(ValueError):
    """Raised when a run needs more than ``MAX_AMPLITUDES`` amplitudes.  The
    test suite's dense oracle raises it too, above its 6-rail cap."""


def check_capacity(amplitudes: int, needs: str, advice: str = "") -> None:
    """``CapacityError`` if ``amplitudes`` exceed ``MAX_AMPLITUDES``.

    The message is ``needs`` (what asks for that many), the cap, then
    ``advice``.
    """
    if amplitudes > MAX_AMPLITUDES:
        raise CapacityError(f"{needs}, above the cap of 2^24 amplitudes "
                            f"(256 MiB){advice}")


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
    """``value`` as a ``float`` (numpy scalars and numeric strings too,
    ``bool`` and ``np.bool_`` not), else ``ValueError``.

    The one number rule for element angles and lengths, segment lengths
    and pump delays: each is stored as the ``float`` it is checked as, so a
    ``float32`` runs at the value it holds, in double precision, and a
    ``True`` is refused rather than read as 1.0.
    """
    if type(value) is float:
        return value
    if not isinstance(value, (bool, np.bool_)):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise ValueError(f"{what} must be a number, got {value!r}")


def require_positive(value, what: str) -> float:
    """``value`` as a ``float`` by ``require_float``, if ``> 0``, else
    ``ValueError``.

    The one bound rule for the run's physical settings: the group velocity,
    the coincidence window, the coherence length and the gate footprint.
    NaN is refused with the rest.
    """
    value = require_float(value, what)
    if not value > 0:
        raise ValueError(f"{what} must be > 0, got {value}")
    return value


def require_at_least(value, minimum: int, what: str):
    """``value`` if an integer by ``require_integer`` and ``>= minimum``,
    else ``ValueError``: the one bound rule for shot counts (``>= 1``) and
    seeds (``>= 0``)."""
    if require_integer(value, what) < minimum:
        raise ValueError(f"{what} must be >= {minimum}, got {value}")
    return value


def check_n_rails(n_rails: int) -> None:
    """``ValueError`` unless ``1 <= n_rails <= MAX_RAILS``: the one rail-count
    rule, for an occupation mask, a sector and a ``Circuit``."""
    if not 1 <= n_rails <= MAX_RAILS:
        raise ValueError(f"rail count {n_rails} outside [1, {MAX_RAILS}]")


def check_rail(n_rails: int, rail: int) -> None:
    """``ValueError`` unless ``rail`` is an integer in ``[0, n_rails)``."""
    if not 0 <= require_integer(rail, "rail index") < n_rails:
        raise ValueError(f"rail index {rail} out of range for {n_rails} rails")


def occupation_mask(n_rails: int, occupied) -> int:
    """Basis mask with bit ``rail`` set for each rail in ``occupied``."""
    check_n_rails(n_rails)
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
    check_n_rails(n_rails)
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


def sector_block(n_rails: int, n_electrons: int) -> tuple:
    """The whole ``n_electrons`` sector of ``n_rails`` rails as a block: one
    group of every rail."""
    return (((1 << n_rails) - 1, n_electrons),)


@lru_cache(maxsize=64)
def block_basis(n_rails: int, block: tuple) -> np.ndarray:
    """Ascending masks of a block (cached, read-only).

    ``block`` is a tuple of ``(group, count)`` pairs: ``group`` a mask of
    rails, the groups disjoint and covering all ``n_rails`` rails, and
    ``count`` the electrons the block's masks hold on that group's rails.
    A one-group block is the sector, ``sector_basis(n_rails, count)``
    itself.  Otherwise the masks are the sorted product of each group's
    ``sector_basis``, spread onto the group's rails, so the sector is never
    formed; a block of more than ``MAX_AMPLITUDES`` masks raises
    ``CapacityError`` before anything is allocated.  A malformed block
    raises ``ValueError``.
    """
    check_n_rails(n_rails)
    covered = 0
    for group, count in block:
        require_integer(group, "block group")
        require_integer(count, "block count")
        if group <= 0 or group & covered or group >> n_rails:
            raise ValueError(f"block groups must be disjoint nonempty masks of "
                             f"{n_rails} rails, got {block}")
        if not 0 <= count <= group.bit_count():
            raise ValueError(f"a block group of {group.bit_count()} rails cannot "
                             f"hold {count} electrons")
        covered |= group
    if covered != (1 << n_rails) - 1:
        raise ValueError(f"block groups must cover all {n_rails} rails, got {block}")
    if len(block) == 1:
        return sector_basis(n_rails, block[0][1])
    size = math.prod(math.comb(group.bit_count(), count) for group, count in block)
    check_capacity(size, f"the block of {sum(count for _, count in block)} "
                         f"electrons in {len(block)} rail groups of {n_rails} "
                         f"rails has {size} amplitudes")
    basis = np.zeros(1, dtype=np.int64)
    for group, count in block:
        rails = [rail for rail in range(n_rails) if (group >> rail) & 1]
        local = sector_basis(len(rails), count)
        placed = np.zeros_like(local)
        for bit, rail in enumerate(rails):
            placed |= ((local >> bit) & 1) << rail
        # the groups' rails are disjoint, so or-ing adds the masks
        basis = (basis[:, np.newaxis] | placed).ravel()
    # the stable argsort that gates._held runs too: a first sort of another
    # kind maps 128 to 256 KiB more of numpy's code in a run
    basis = basis.take(basis.argsort(kind="stable"))
    basis.setflags(write=False)
    return basis


@lru_cache(maxsize=64)
def _group_labels(n_rails: int, block: tuple) -> np.ndarray:
    """The index of each rail's group in ``block`` (cached, read-only)."""
    groups = np.array([group for group, _ in block], dtype=np.int64)
    labels = ((groups[:, np.newaxis] >> np.arange(n_rails)) & 1).argmax(axis=0)
    labels.setflags(write=False)
    return labels


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
def _pair_plan(n_rails: int, lo: int, hi: int, block: tuple):
    """Partner plan of the rail pair ``lo < hi`` (cached, read-only).

    Returns ``(positions, signs)`` over ``block_basis(n_rails, block)``.
    ``positions`` (intp) lists the masks with only ``lo`` occupied within
    the pair, then their partners, the same masks with the electron on
    ``hi``, then the masks with both occupied; ``signs``
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
    kernels need no rail check of their own.  A pair whose rails lie in two
    groups of the block raises ``ValueError``: its partners are not in the
    block.
    """
    check_rail(n_rails, lo)
    check_rail(n_rails, hi)
    if lo == hi:
        raise ValueError(f"a mode unitary needs two distinct rails, "
                         f"got rail {lo} twice")
    basis = block_basis(n_rails, block)
    if not any((group >> lo) & (group >> hi) & 1 for group, _ in block):
        raise ValueError(f"a coupler on rails {lo} and {hi} joins two groups "
                         f"of the block")
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
def rail_occupied_indices(n_rails: int, rail: int, block: tuple) -> np.ndarray:
    """Positions in ``block_basis(n_rails, block)`` in which ``rail`` is
    occupied (cached, read-only)."""
    check_rail(n_rails, rail)
    basis = block_basis(n_rails, block)
    idx = np.flatnonzero((basis >> rail) & 1)
    idx.setflags(write=False)
    return idx


@lru_cache(maxsize=128, typed=True)
def pair_occupied_indices(n_rails: int, rail_a: int, rail_b: int,
                          block: tuple) -> np.ndarray:
    """Positions in ``block_basis(n_rails, block)`` in which both rails are
    occupied (cached, read-only)."""
    check_rail(n_rails, rail_a)
    check_rail(n_rails, rail_b)
    basis = block_basis(n_rails, block)
    idx = np.flatnonzero((basis >> rail_a) & (basis >> rail_b) & 1)
    idx.setflags(write=False)
    return idx


# A unitary's nine coefficients, lower rail first: 1, 0, u00, u01, u10, u11,
# det(u), -u01, -u10.  Column c of _CLASSES picks a mask's own coefficient
# and its partner's, for the code c = the parity of the occupied rails
# between the pair + 2 * its lower bit + 4 * its upper bit: with neither
# rail occupied 1 and 0, with both det(u) and 0
_CLASSES = np.array([[0, 0, 2, 2, 5, 5, 6, 6], [1, 1, 3, 7, 4, 8, 1, 1]],
                    dtype=np.int8)
# every unitary's first two coefficients
_ONE_ZERO = np.array([1.0, 0.0], dtype=np.complex128)


def _coefficients(u: np.ndarray) -> np.ndarray:
    """The ``(c, 9)`` coefficients of ``(c, 2, 2)`` unitaries on pairs, lower
    rail first, in the order ``_CLASSES`` picks them."""
    count = len(u)
    coefficients = np.empty((count, 9), dtype=np.complex128)
    coefficients[:, :2] = _ONE_ZERO
    coefficients[:, 2:6] = u.reshape(count, 4)
    np.negative(coefficients[:, 3:5], out=coefficients[:, 7:9])
    det = coefficients[:, 6]
    np.multiply(coefficients[:, 2], coefficients[:, 5], out=det)
    det -= coefficients[:, 3] * coefficients[:, 4]
    return coefficients


@lru_cache(maxsize=8, typed=True)
def _sector_rows(n_rails: int, block: tuple):
    """Partner rows and coefficient classes of every rail pair within a
    group of a block (cached, read-only).

    Returns ``(bits, slot, partner, classes)`` over ``block_basis(n_rails,
    block)``, all pairs ``lo < hi`` of one group built in one pass: ``bits``
    is ``(n_rails, dim)`` bool, row ``r`` true on the masks that occupy rail
    ``r``; ``slot[lo, hi]`` is the row of the pair in ``partner``, or -1 for
    rails of two groups; ``partner`` is a ``(p, dim)`` intp array that
    holds, for every position, that of the same mask with the pair's one
    electron on the other rail, or the position itself with none or two;
    ``classes`` is ``(2, p, dim)`` int8, ``classes[0]`` picking each mask's
    own coefficient and ``classes[1]`` its partner's (see ``_CLASSES``).
    The building is counted through ``check_capacity``, at 40 bytes a mask
    per pair; the entry keeps 10 of them.  One entry per block, not per
    pair, so a run misses once.
    """
    basis = block_basis(n_rails, block)
    dim = basis.size
    lo, hi = np.triu_indices(n_rails, 1)
    if len(block) > 1:
        labels = _group_labels(n_rails, block)
        joined = labels[lo] == labels[hi]
        lo, hi = lo[joined], hi[joined]
    check_capacity((n_rails + 40 * lo.size) * dim // 16 + n_rails * n_rails + 1,
                   f"the partner rows of {lo.size} rail pairs over {dim} masks")
    bits = (basis & (1 << np.arange(n_rails))[:, np.newaxis]) != 0
    lo_bit, hi_bit = bits[lo], bits[hi]
    # moving a pair's electron from the lower rail to the upper, within its
    # group, adds the same number to every such mask of the block, so the
    # i-th mask with only the lower rail occupied and the i-th with only the
    # upper one are partners
    src = (lo_bit > hi_bit).ravel().nonzero()[0]
    dst = (hi_bit > lo_bit).ravel().nonzero()[0]
    partner = np.arange(lo.size * dim)
    partner[src] = dst
    partner[dst] = src
    partner %= dim
    # the parity of the occupied rails strictly between the pair, from the
    # parity of each rail and those below it
    below = np.logical_xor.accumulate(bits, axis=0)
    code = np.add(lo_bit, hi_bit, dtype=np.int8)
    code += hi_bit
    code += code
    code += below[hi - 1] ^ below[lo]
    slot = np.full((n_rails, n_rails), -1, dtype=np.intp)
    slot[lo, hi] = np.arange(lo.size)
    partner = partner.reshape(lo.size, dim)
    classes = _CLASSES.take(code, axis=1)
    for table in bits, slot, partner, classes:
        table.setflags(write=False)
    return bits, slot, partner, classes


def apply_mode_unitaries(batch: np.ndarray, n_rails: int, pairs: np.ndarray,
                         u: np.ndarray, block: tuple, phases) -> None:
    """Apply two-rail mode unitaries in turn to block amplitudes, with the
    diagonal phases between them, in place.

    ``batch`` is one ``(dim,)`` state vector or a ``(dim, m)`` batch whose
    columns the update acts on alike; its first axis follows
    ``block_basis(n_rails, block)``.  Unitary ``j`` is the 2x2
    ``u[j]`` of the ``(c, 2, 2)`` complex ``u`` on the rails of row ``j``
    of the ``(c, 2)`` intp ``pairs``, lower rail first, acting as
    ``mode_unitary_batch`` does.  ``phases`` is None or ``(after, rails_a,
    rails_b, turns)``, four arrays with ascending ``after``: phase ``i``
    multiplies the masks that occupy both ``rails_a[i]`` and
    ``rails_b[i]`` (one rail when they are equal) by ``turns[i]`` just
    after unitary ``after[i]``, or before the first one when ``after[i] ==
    -1``.  The rails are not checked against ``n_rails``, but a unitary
    whose rails lie in two groups of the block raises ``ValueError`` before
    ``batch`` changes.

    On a block of 2 to ``_MAX_ROW_MASKS`` masks every unitary goes in
    partner form, ``x <- A * x + B * x[partner]``: one gather, two products
    and a sum.  The partner rows and coefficient classes of the block's
    pairs are built once per block (``_sector_rows``).  ``_BLOCK_COUPLERS``
    unitaries at a time, each one's rows ``A`` and ``B`` are picked from its
    nine coefficients (``_coefficients``) by the classes of its pair, and
    the phases after it fold into both, ``A *= D`` and ``B *= D`` with
    ``D`` their product on the masks they occupy (``_phase_places``,
    ``_BLOCK_COUPLERS`` phases a call).  The phases before the first
    unitary are one diagonal product.  ``check_capacity`` counts the rows,
    the phases' places and the gathered copy of ``batch``.  Otherwise each
    unitary is one ``mode_unitary_batch``, which touches only the masks
    with an electron on its pair, and each phase one product on the masks
    it occupies.
    """
    dim, count = block_basis(n_rails, block).size, len(pairs)
    if len(block) > 1 and count:
        labels = _group_labels(n_rails, block).take(pairs)
        joined = labels[:, 0] != labels[:, 1]
        if joined.any():
            lo, hi = pairs[joined.argmax()].tolist()
            raise ValueError(f"a coupler on rails {lo} and {hi} joins two "
                             f"groups of the block")
    if not 1 < dim <= _MAX_ROW_MASKS:
        _apply_by_positions(batch, n_rails, pairs, u, block, phases)
        return
    bits, slot, partner, classes = _sector_rows(n_rails, block)
    owned = slot[pairs[:, 0], pairs[:, 1]]
    step = _BLOCK_COUPLERS
    width = min(step, count)
    n_phases = 0 if phases is None else phases[0].size
    # bytes a mask: 56 for each unitary of a block, its rows, their classes
    # and its partner row, and 56 for each phase placed at a time, the masks
    # it occupies and their places and turns.  Then the gathered copy of
    # batch, and the stretch as compiled: 240 bytes a unitary, its pair, its
    # u and its coefficients, and 40 a phase
    check_capacity((56 * width + 56 * min(step, n_phases)) * dim // 16
                   + batch.size + 15 * count + 3 * n_phases + 1,
                   f"the rows of {count} unitaries over {dim} masks")
    # the phases before the first unitary, then those after each block's
    bounds = (phases[0].searchsorted(np.arange(0, count + step, step)).tolist()
              if n_phases else [0] * (count // step + 2))
    column = batch.ndim == 2
    if bounds[0]:
        factor = np.ones(dim, dtype=np.complex128)
        for low in range(0, bounds[0], step):
            place, turn = _phase_places(bits, phases, low, min(low + step, bounds[0]), -1)
            np.multiply.at(factor, place, turn)
        batch *= factor[:, np.newaxis] if column else factor
    if not count:
        return
    coefficients = _coefficients(u)
    hop = np.empty_like(batch)
    # the per-unitary calls, looked up once and given positional arguments:
    # on 70 masks that took 1000 unitaries from 1.66 to 1.43 ms
    take, multiply, add = batch.take, np.multiply, np.add
    # one block's coefficient indices and A and B rows, reused
    index = np.empty((2, width, dim), dtype=np.intp)
    rows = np.empty((2, width, dim), dtype=np.complex128)
    own_rows, partner_rows = rows.reshape(2, -1)
    # the partner row of each unitary of a block
    gather = np.empty((width, dim), dtype=np.intp)
    offsets = np.arange(0, 9 * count, 9)[:, np.newaxis]
    for start, low, high in zip(range(0, count, step), bounds, bounds[1:]):
        own = owned[start:start + step]
        size = own.size
        add(classes.take(own, axis=1), offsets[start:start + size], index[:, :size])
        # mode "clip" writes into out unbuffered; every index is in range
        coefficients.take(index[:, :size], out=rows[:, :size], mode="clip")
        partner.take(own, 0, gather[:size], "clip")
        for chunk in range(low, high, step):
            place, turn = _phase_places(bits, phases, chunk, min(chunk + step, high), start)
            # one call per row, which keeps ufunc.at on its fast 1-D path
            np.multiply.at(own_rows, place, turn)
            np.multiply.at(partner_rows, place, turn)
        pick = rows[:, :size, :, np.newaxis] if column else rows[:, :size]
        for a, b, p in zip(pick[0], pick[1], gather[:size]):
            # mode "clip" is not buffered: the gather writes into hop
            take(p, 0, hop, "clip")
            multiply(hop, b, hop)
            multiply(batch, a, batch)
            add(batch, hop, batch)


def _phase_places(bits: np.ndarray, phases, low: int, high: int, start: int):
    """The masks that phases ``low`` to ``high`` occupy, as places in the
    flat rows of the unitaries from ``start`` on (the place of a mask in the
    rows of the unitary each phase follows), and the turn of each place."""
    after, rails_a, rails_b, turns = phases
    dim = bits.shape[1]
    hits = (bits[rails_a[low:high]] & bits[rails_b[low:high]]).ravel().nonzero()[0]
    phase, place = np.divmod(hits, dim)
    phase += low
    shift = after.take(phase)
    shift -= start
    shift *= dim
    place += shift
    return place, turns.take(phase)


def _apply_by_positions(batch: np.ndarray, n_rails: int, pairs: np.ndarray,
                        u: np.ndarray, block: tuple, phases) -> None:
    """``apply_mode_unitaries`` above ``_MAX_ROW_MASKS`` masks: each unitary
    one ``mode_unitary_batch`` and each phase one product on the masks that
    occupy its rails (the cached index helpers)."""
    pairs = pairs.tolist()
    after, rails_a, rails_b, turns = (((), (), (), ()) if phases is None else
                                      (values.tolist() for values in phases))
    phase = 0
    for j in range(-1, len(pairs)):
        if j >= 0:
            mode_unitary_batch(batch, n_rails, pairs[j], u[j], block)
        while phase < len(after) and after[phase] == j:
            a, b = rails_a[phase], rails_b[phase]
            idx = (rail_occupied_indices(n_rails, a, block) if a == b else
                   pair_occupied_indices(n_rails, a, b, block))
            # out of place: numpy rounds an in-place complex product of one
            # amplitude differently from a longer one
            batch[idx] = batch[idx] * turns[phase]
            phase += 1


def mode_unitary_batch(batch: np.ndarray, n_rails: int, rails, u: np.ndarray,
                       block: tuple) -> None:
    """Apply a two-rail mode unitary to block amplitudes, in place.

    ``batch`` is one ``(dim,)`` state vector or a ``(dim, m)`` batch whose
    columns the update acts on alike; its first axis follows
    ``block_basis(n_rails, block)``, and ``rails`` must lie in one of its
    groups.  ``u`` mixes the single-electron
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
    positions, signs = _pair_plan(n_rails, r0, r1, block)
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
    Over a block, ``block_basis`` maps positions back to masks.
    Zero-probability masks only repeat a cumulative value, so a draw over a
    block selects the same mask as one over its whole sector or over all
    2^n masks would.

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
