import numpy as np
import pytest

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
    apply_element_batch(vector, 2, WaveguideCoupler((0, 1), 0.14, 0.28), k)
    full = sectors.scatter(vector, 2, k)
    assert full[0] == 1.0
    assert np.count_nonzero(full) == 1


def test_vacuum_norm():
    k, vector = sectors.loaded(3, set())
    for element in (PhaseShifter(1, 0.4), WaveguideCoupler((0, 2), 0.1, 0.28),
                    CoulombCoupler((0, 1), 0.9)):
        apply_element_batch(vector, 3, element, k)
    assert np.linalg.norm(vector) == pytest.approx(1.0, abs=1e-15)


def test_vacuum_zero_rails_rejected():
    with pytest.raises(ValueError):
        occupation_mask(0, set())


def test_capacity_cap():
    with pytest.raises(CapacityError):
        occupation_mask(25, set())


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
    mode_unitary_batch(vector, 2, (0, 1), np.eye(2), k)
    assert np.allclose(vector, start)


def test_mode_unitary_adjacent_full_transfer():
    # electron on rail 0, full transfer: |10> -> i|01>
    k, vector = sectors.loaded(2, {0})
    mode_unitary_batch(vector, 2, (0, 1), FULL_TRANSFER, k)
    expected = np.zeros(4, dtype=complex)
    expected[0b10] = 1j
    assert np.allclose(sectors.scatter(vector, 2, k), expected, atol=1e-12)


def test_mode_unitary_matches_dense_oracle_adjacent():
    u = FULL_TRANSFER
    dense = oracles.dense_mode_unitary(2, (0, 1), u)
    for mask in range(4):
        k, vector = sectors.basis_vector(2, mask)
        mode_unitary_batch(vector, 2, (0, 1), u, k)
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
    mode_unitary_batch(vector, 2, (0, 1), u, k)
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
    mode_unitary_batch(vector, 2, (0, 1), BALANCED, k)
    start = vector.copy()
    apply_element_batch(vector, 2, PhaseShifter(0, 0.0), k)
    apply_element_batch(vector, 2, CoulombCoupler((0, 1), 0.0), k)
    assert np.allclose(vector, start)


def test_diagonal_phase_global_phase_keeps_probabilities():
    # rail 0 is occupied in every component: its phase is a global phase
    k, vector = sectors.loaded(2, {0})
    start = vector.copy()
    apply_element_batch(vector, 2, PhaseShifter(0, 0.7), k)
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
    apply_element_batch(batch, 2, PhaseShifter(1, np.pi), k)
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
    mode_unitary_batch(vector, 2, (0, 1), BALANCED, k)
    rng = np.random.default_rng(123)
    shots = 100_000
    hits = read_masks(2, k, vector, rng.random(shots)).count(0b01)
    assert hits / shots == pytest.approx(0.5, abs=0.01)


def test_measure_vacuum_always_empty():
    rng = np.random.default_rng(7)
    k, vector = sectors.loaded(3, set())
    apply_element_batch(vector, 3, WaveguideCoupler((0, 2), 0.2, 0.28), k)
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
        mode_unitary_batch(vector, 4, rails, u, k)
    assert abs(np.linalg.norm(vector) - 1.0) < 1e-10
