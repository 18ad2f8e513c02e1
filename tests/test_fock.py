import math
import tracemalloc

import numpy as np
import pytest

from flyqsim import fock
from flyqsim.fock import (
    CapacityError,
    mode_unitary_batch,
    occupation_mask,
    sample_counts,
    sector_basis,
)
from flyqsim.gates import (
    CoulombCoupler,
    PhaseShifter,
    WaveguideCoupler,
    apply_element_batch,
)

import oracles
import sectors
from oracles import fidelity

FULL_TRANSFER = np.array([[0, 1j], [1j, 0]])
BALANCED = np.array([[1, 1j], [1j, 1]]) / np.sqrt(2)


# --- the empty sector ---------------------------------------------------


def test_vacuum_single_rail():
    k, vector = sectors.loaded(1, set())
    assert k == 0
    assert np.array_equal(sector_basis(1, 0), [0])
    assert np.allclose(sectors.scatter(vector, 1, k), [1, 0])


def test_vacuum_two_rails_all_zero_mask():
    k, vector = sectors.loaded(2, set())
    apply_element_batch(vector, 2, WaveguideCoupler((0, 1), 0.14, 0.28), fock.sector_block(2, k))
    full = sectors.scatter(vector, 2, k)
    assert full[0] == 1.0
    assert np.count_nonzero(full) == 1


def test_vacuum_norm():
    k, vector = sectors.loaded(3, set())
    for element in (PhaseShifter(1, 0.4), WaveguideCoupler((0, 2), 0.1, 0.28),
                    CoulombCoupler((0, 1), 0.9)):
        apply_element_batch(vector, 3, element, fock.sector_block(3, k))
    assert np.linalg.norm(vector) == pytest.approx(1.0, abs=1e-15)


def test_vacuum_zero_rails_rejected():
    with pytest.raises(ValueError):
        occupation_mask(0, set())


def test_capacity_cap():
    # the one capacity rule bounds the sector, C(n, k), not the rail count
    with pytest.raises(CapacityError, match=r"the 13-electron sector of 27 "
                                            r"rails has C\(27, 13\) = 20058300 "
                                            r"amplitudes, above the cap of 2\^24"):
        sector_basis(27, 13)
    assert sector_basis(63, 1).size == 63


def test_capacity_cap_admits_a_sector_of_exactly_the_cap(monkeypatch):
    sector_basis.cache_clear()
    monkeypatch.setattr(fock, "MAX_AMPLITUDES", math.comb(12, 6))
    assert sector_basis(12, 6).size == math.comb(12, 6)
    with pytest.raises(CapacityError, match=r"C\(13, 6\) = 1716 amplitudes"):
        sector_basis(13, 6)


def test_refused_sector_allocates_nothing_and_is_not_cached():
    # C(40, 12) = 5586853480 masks would be 41 GiB of int64
    before = sector_basis.cache_info().currsize
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match=r"C\(40, 12\) = 5586853480"):
            sector_basis(40, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert sector_basis.cache_info().currsize == before
    with pytest.raises(CapacityError):
        sector_basis(40, 12)


@pytest.mark.parametrize("call", [
    lambda n: occupation_mask(n, set()),
    lambda n: sector_basis(n, 2),
], ids=["occupation_mask", "sector_basis"])
def test_rail_limit_is_the_int64_mask_width(call):
    # bit 63 of an int64 mask is its sign: 63 rails run, 64 are refused by
    # the rail check, not by an overflow in numpy
    call(63)
    for n_rails in (0, 64):
        with pytest.raises(ValueError, match=rf"rail count {n_rails} outside "
                                             r"\[1, 63\]") as err:
            call(n_rails)
        assert not isinstance(err.value, CapacityError)


def test_widest_masks_set_bit_62():
    assert occupation_mask(63, {0, 62}) == (1 << 62) | 1
    basis = sector_basis(63, 2)
    assert basis.size == math.comb(63, 2)
    assert basis[-1] == (1 << 62) | (1 << 61)
    assert np.all(np.diff(basis) > 0)


# --- pump-loaded inputs ---------------------------------------------------


def test_prepare_occupation_single():
    k, vector = sectors.loaded(2, {1})
    full = sectors.scatter(vector, 2, k)
    assert full[0b10] == 1.0
    assert np.count_nonzero(full) == 1


def test_prepare_occupation_both():
    k, vector = sectors.loaded(2, {0, 1})
    assert sectors.scatter(vector, 2, k)[0b11] == 1.0


@pytest.mark.parametrize("rail", [0.5, 1.0, True])
def test_prepare_occupation_rejects_rails_that_are_not_integers(rail):
    with pytest.raises(ValueError, match=r"rail index must be an integer"):
        occupation_mask(2, {rail})


def test_prepare_occupation_accepts_numpy_integers():
    assert occupation_mask(3, {np.int64(2)}) == occupation_mask(3, {2}) == 0b100
    k, vector = sectors.loaded(3, {np.int64(2)})
    assert k == 1
    assert np.array_equal(vector, sectors.loaded(3, {2})[1])


def test_prepare_occupation_empty_is_vacuum():
    assert occupation_mask(4, set()) == 0
    k, vector = sectors.loaded(4, set())
    assert k == 0
    assert np.array_equal(vector, [1.0])


def test_prepare_occupation_out_of_range():
    with pytest.raises(ValueError):
        occupation_mask(2, {2})


# --- mode unitaries -----------------------------------------------------


def test_mode_unitary_identity():
    k, vector = sectors.loaded(2, {0})
    start = vector.copy()
    mode_unitary_batch(vector, 2, (0, 1), np.eye(2), fock.sector_block(2, k))
    assert np.allclose(vector, start)


@pytest.mark.parametrize("columns", [None, 3], ids=["vector", "batch"])
def test_mode_unitary_refuses_one_rail_twice(columns):
    # one rail twice has no hopping amplitude: the update would only scale
    # the occupied components by det(u), here [0.6, 0.8] -> [0.6, -0.8]
    batch = np.array([0.6, 0.8])
    if columns:
        batch = np.repeat(batch[:, np.newaxis], columns, axis=1)
    start = batch.copy()
    cached = fock._pair_plan.cache_info().currsize
    with pytest.raises(ValueError, match="two distinct rails, got rail 1 twice"):
        mode_unitary_batch(batch, 2, (1, 1), np.diag([1.0, -1.0]), fock.sector_block(2, 1))
    assert np.array_equal(batch, start)
    assert fock._pair_plan.cache_info().currsize == cached


def test_mode_unitary_adjacent_full_transfer():
    # electron on rail 0, full transfer: |10> -> i|01>
    k, vector = sectors.loaded(2, {0})
    mode_unitary_batch(vector, 2, (0, 1), FULL_TRANSFER, fock.sector_block(2, k))
    expected = np.zeros(4, dtype=complex)
    expected[0b10] = 1j
    assert np.allclose(sectors.scatter(vector, 2, k), expected, atol=1e-12)


def test_mode_unitary_matches_dense_oracle_adjacent():
    u = FULL_TRANSFER
    dense = oracles.dense_mode_unitary(2, (0, 1), u)
    for mask in range(4):
        k, vector = sectors.basis_vector(2, mask)
        mode_unitary_batch(vector, 2, (0, 1), u, fock.sector_block(2, k))
        assert np.allclose(sectors.scatter(vector, 2, k), dense[:, mask],
                           atol=1e-10)


def test_mode_unitary_nonadjacent_jw_sign():
    # rails (0, 2) with rail 1 occupied: hopping amplitudes flip sign
    rng = np.random.default_rng(11)
    vec = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    vec /= np.linalg.norm(vec)
    u = np.array([[np.cos(0.3), 1j * np.sin(0.3)],
                  [1j * np.sin(0.3), np.cos(0.3)]])
    out = sectors.evolve_mode_unitary(vec, 3, (0, 2), u)
    dense = oracles.dense_mode_unitary(3, (0, 2), u)
    assert np.allclose(out, dense @ vec, atol=1e-10)


def test_mode_unitary_reversed_pair_convention():
    # first rail of the pair indexes the first row/column of u
    rng = np.random.default_rng(5)
    vec = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    vec /= np.linalg.norm(vec)
    u = np.array([[0.6, 0.8j], [0.8j, 0.6]])
    out = sectors.evolve_mode_unitary(vec, 3, (2, 0), u)
    dense = oracles.dense_mode_unitary(3, (2, 0), u)
    assert np.allclose(out, dense @ vec, atol=1e-10)


def test_mode_unitary_doubly_occupied_det_factor():
    u = np.array([[0.6, 0.8j], [0.8j, 0.6]])
    k, vector = sectors.loaded(2, {0, 1})
    mode_unitary_batch(vector, 2, (0, 1), u, fock.sector_block(2, k))
    det = np.linalg.det(u)
    assert sectors.scatter(vector, 2, k)[0b11] == pytest.approx(det, abs=1e-12)


def test_mode_unitary_rejects_equal_rails():
    # a mode unitary reaches the engine only through a two-rail element,
    # and each one refuses a pair that is one rail twice
    with pytest.raises(ValueError, match="distinct pair"):
        WaveguideCoupler((1, 1), 0.1, 0.28)
    with pytest.raises(ValueError, match="distinct pair"):
        CoulombCoupler((1, 1), 0.5)


# --- diagonal phases: phase shifters and Coulomb couplers -----------------


def test_diagonal_phase_zero_is_identity():
    k, vector = sectors.loaded(2, {0})
    mode_unitary_batch(vector, 2, (0, 1), BALANCED, fock.sector_block(2, k))
    start = vector.copy()
    apply_element_batch(vector, 2, PhaseShifter(0, 0.0), fock.sector_block(2, k))
    apply_element_batch(vector, 2, CoulombCoupler((0, 1), 0.0), fock.sector_block(2, k))
    assert np.allclose(vector, start)


def test_diagonal_phase_global_phase_keeps_probabilities():
    # rail 0 is occupied in every component: its phase is a global phase
    k, vector = sectors.loaded(2, {0})
    start = vector.copy()
    apply_element_batch(vector, 2, PhaseShifter(0, 0.7), fock.sector_block(2, k))
    assert fidelity(vector, start) == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(np.abs(vector) ** 2, np.abs(start) ** 2)


def test_diagonal_phase_pi_on_doubly_occupied():
    amps = np.full(4, 0.5, dtype=complex)
    out = sectors.evolve(amps, 2, [CoulombCoupler((0, 1), np.pi / 2)])
    expected = np.array([0.5, 0.5, 0.5, -0.5])
    assert np.allclose(out, expected, atol=1e-12)


def test_diagonal_phase_accepts_array():
    # a (dim, m) batch: the phase acts on every column alike
    k = 1
    batch = np.array([[1.0, 0.6], [1.0, 0.8]], dtype=complex)
    apply_element_batch(batch, 2, PhaseShifter(1, np.pi), fock.sector_block(2, k))
    assert np.allclose(batch, [[1.0, 0.6], [-1.0, -0.8]], atol=1e-12)


# --- readout --------------------------------------------------------------


def read_masks(n_rails, k, vector, uniforms):
    """Masks counted by ``sample_counts`` from the probabilities of
    ``vector``, one per uniform, in ascending order."""
    counts = sample_counts(np.cumsum(np.abs(vector) ** 2), uniforms,
                           np.zeros(vector.size, dtype=np.intp))
    return np.repeat(sector_basis(n_rails, k), counts).tolist()


def test_measure_basis_state_deterministic():
    rng = np.random.default_rng(0)
    k, vector = sectors.loaded(2, {0})
    assert read_masks(2, k, vector, rng.random(20)) == [0b01] * 20


def test_measure_balanced_superposition_statistics():
    k, vector = sectors.loaded(2, {0})
    mode_unitary_batch(vector, 2, (0, 1), BALANCED, fock.sector_block(2, k))
    rng = np.random.default_rng(123)
    shots = 100_000
    hits = read_masks(2, k, vector, rng.random(shots)).count(0b01)
    assert hits / shots == pytest.approx(0.5, abs=0.01)


def test_measure_vacuum_always_empty():
    rng = np.random.default_rng(7)
    k, vector = sectors.loaded(3, set())
    apply_element_batch(vector, 3, WaveguideCoupler((0, 2), 0.2, 0.28), fock.sector_block(3, k))
    assert read_masks(3, k, vector, rng.random(10)) == [0] * 10


def counts_of(cumulative, uniforms) -> list:
    out = np.zeros(len(cumulative), dtype=np.intp)
    return sample_counts(cumulative, np.asarray(uniforms, dtype=float), out).tolist()


def test_sample_counts_zero_uniform_skips_zero_probability_mask():
    cumulative = np.cumsum([0.0, 0.5, 0.5])
    assert counts_of(cumulative, [0.0]) == [0, 1, 0]
    assert counts_of(cumulative, [0.0, 0.0]) == [0, 2, 0]


def test_sample_counts_draw_rounded_up_to_a_subnormal_total():
    # u * total rounds to the total itself: the draw lands on the last mask
    # of nonzero weight, never on the zero-probability masks after it
    cumulative = np.cumsum([0.0, 5e-324, 0.0, 0.0])
    top = 1.0 - 2.0 ** -53
    assert top * cumulative[-1] == cumulative[-1]
    assert counts_of(cumulative, [top]) == [0, 1, 0, 0]
    assert counts_of(cumulative, [top] * 6) == [0, 6, 0, 0]


def test_sample_counts_match_reference_loop():
    rng = np.random.default_rng(31)
    probs = rng.random(8) * (rng.random(8) < 0.6)
    probs[3] += 0.1
    uniforms = rng.random(50)
    uniforms[:5] = 0.0
    cumulative = np.cumsum(probs)
    expected = oracles.oracle_masks(probs, uniforms)
    assert all(probs[m] > 0 for m in expected)
    # 8 positions against 50, 8 and 5 draws: both search directions
    for n in (50, 8, 5):
        assert counts_of(cumulative, uniforms[:n]) == np.bincount(
            expected[:n], minlength=8).tolist()
    for u, m in zip(uniforms, expected):
        assert counts_of(cumulative, [u]) == [
            int(m == j) for j in range(8)]
    with pytest.raises(ValueError):
        counts_of(np.zeros(4), [0.5])


def test_sample_counts_add_to_out_in_both_directions():
    rng = np.random.default_rng(32)
    probs = rng.random(40) * (rng.random(40) < 0.5)
    probs[7] += 0.1
    cumulative = np.cumsum(probs)
    uniforms = rng.random(300)
    uniforms[:3] = 0.0
    expected = np.bincount(oracles.oracle_masks(probs, uniforms), minlength=40)
    # chunks of 100 search positions in draws, chunks of 7 draws in positions
    for chunk in (100, 7):
        out = np.zeros(40, dtype=np.intp)
        for start in range(0, 300, chunk):
            assert sample_counts(cumulative, uniforms[start:start + chunk],
                                 out) is out
        assert out.tolist() == expected.tolist()
    assert counts_of(cumulative, []) == [0] * 40


def test_fidelity_self():
    _, vector = sectors.loaded(3, {1})
    assert fidelity(vector, vector) == pytest.approx(1.0, abs=1e-15)


def test_fidelity_orthogonal():
    assert fidelity(sectors.loaded(2, {0})[1], sectors.loaded(2, {1})[1]) == 0.0


def test_fidelity_global_phase():
    _, vector = sectors.loaded(2, {0})
    assert fidelity(vector, vector * np.exp(1.23j)) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_dimension_mismatch():
    with pytest.raises(ValueError):
        fidelity(sectors.loaded(2, {0})[1], sectors.loaded(2, {0, 1})[1])


def test_norm_preserved_through_gate_sequence():
    rng = np.random.default_rng(42)
    k, vector = sectors.loaded(4, {0, 2})
    for _ in range(40):
        rails = tuple(int(r) for r in rng.choice(4, 2, replace=False))
        theta = rng.uniform(0, np.pi)
        u = np.array([[np.cos(theta), 1j * np.sin(theta)],
                      [1j * np.sin(theta), np.cos(theta)]])
        mode_unitary_batch(vector, 4, rails, u, fock.sector_block(4, k))
    assert abs(np.linalg.norm(vector) - 1.0) < 1e-10
