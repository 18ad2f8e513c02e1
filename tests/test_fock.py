import numpy as np
import pytest

from flyqsim.fock import (
    CapacityError,
    OccupationState,
    apply_diagonal_phase,
    apply_mode_unitary,
    fidelity,
    measure_all,
    prepare_occupation,
    sample_masks,
    vacuum,
)

import oracles

FULL_TRANSFER = np.array([[0, 1j], [1j, 0]])


def test_vacuum_single_rail():
    state = vacuum(1)
    assert np.allclose(state.amplitudes, [1, 0])


def test_vacuum_two_rails_all_zero_mask():
    state = vacuum(2)
    assert state.amplitudes[0] == 1.0
    assert np.count_nonzero(state.amplitudes) == 1


def test_vacuum_norm():
    assert vacuum(3).norm() == pytest.approx(1.0, abs=1e-15)


def test_vacuum_zero_rails_rejected():
    with pytest.raises(ValueError):
        vacuum(0)


def test_capacity_cap():
    with pytest.raises(CapacityError):
        vacuum(25)


def test_prepare_occupation_single():
    state = prepare_occupation(2, {1})
    assert state.amplitudes[0b10] == 1.0
    assert np.count_nonzero(state.amplitudes) == 1


def test_prepare_occupation_both():
    state = prepare_occupation(2, {0, 1})
    assert state.amplitudes[0b11] == 1.0


@pytest.mark.parametrize("rail", [0.5, 1.0, True])
def test_prepare_occupation_rejects_rails_that_are_not_integers(rail):
    with pytest.raises(ValueError, match=r"rail index must be an integer"):
        prepare_occupation(2, {rail})


def test_prepare_occupation_accepts_numpy_integers():
    assert np.array_equal(prepare_occupation(3, {np.int64(2)}).amplitudes,
                          prepare_occupation(3, {2}).amplitudes)


def test_prepare_occupation_empty_is_vacuum():
    assert np.array_equal(prepare_occupation(4, set()).amplitudes,
                          vacuum(4).amplitudes)


def test_prepare_occupation_out_of_range():
    with pytest.raises(ValueError):
        prepare_occupation(2, {2})


def test_state_shape_validation():
    with pytest.raises(ValueError):
        OccupationState(2, np.ones(3, dtype=complex))


def test_state_norm_validation():
    with pytest.raises(ValueError):
        OccupationState(1, np.array([1.0, 1.0]))
    unnorm = OccupationState(1, np.array([1.0, 1.0]), normalized=False)
    assert unnorm.norm() == pytest.approx(np.sqrt(2))


def test_mode_unitary_identity():
    state = apply_mode_unitary(prepare_occupation(2, {0}), (0, 1), np.eye(2))
    assert np.allclose(state.amplitudes, prepare_occupation(2, {0}).amplitudes)


def test_mode_unitary_adjacent_full_transfer():
    # electron on rail 0, full transfer: |10> -> i|01>
    state = apply_mode_unitary(prepare_occupation(2, {0}), (0, 1), FULL_TRANSFER)
    expected = np.zeros(4, dtype=complex)
    expected[0b10] = 1j
    assert np.allclose(state.amplitudes, expected, atol=1e-12)


def test_mode_unitary_matches_dense_oracle_adjacent():
    u = FULL_TRANSFER
    dense = oracles.dense_mode_unitary(2, (0, 1), u)
    for mask in range(4):
        vec = np.zeros(4, dtype=complex)
        vec[mask] = 1.0
        state = OccupationState(2, vec)
        out = apply_mode_unitary(state, (0, 1), u)
        assert np.allclose(out.amplitudes, dense @ vec, atol=1e-10)


def test_mode_unitary_nonadjacent_jw_sign():
    # rails (0, 2) with rail 1 occupied: hopping amplitudes flip sign
    rng = np.random.default_rng(11)
    vec = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    vec /= np.linalg.norm(vec)
    u = np.array([[np.cos(0.3), 1j * np.sin(0.3)],
                  [1j * np.sin(0.3), np.cos(0.3)]])
    out = apply_mode_unitary(OccupationState(3, vec), (0, 2), u)
    dense = oracles.dense_mode_unitary(3, (0, 2), u)
    assert np.allclose(out.amplitudes, dense @ vec, atol=1e-10)


def test_mode_unitary_reversed_pair_convention():
    # first rail of the pair indexes the first row/column of u
    rng = np.random.default_rng(5)
    vec = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    vec /= np.linalg.norm(vec)
    u = np.array([[0.6, 0.8j], [0.8j, 0.6]])
    out = apply_mode_unitary(OccupationState(3, vec), (2, 0), u)
    dense = oracles.dense_mode_unitary(3, (2, 0), u)
    assert np.allclose(out.amplitudes, dense @ vec, atol=1e-10)


def test_mode_unitary_doubly_occupied_det_factor():
    u = np.array([[0.6, 0.8j], [0.8j, 0.6]])
    state = apply_mode_unitary(prepare_occupation(2, {0, 1}), (0, 1), u)
    det = np.linalg.det(u)
    assert state.amplitudes[0b11] == pytest.approx(det, abs=1e-12)


def test_mode_unitary_rejects_equal_rails():
    with pytest.raises(ValueError):
        apply_mode_unitary(vacuum(2), (1, 1), np.eye(2))


def test_mode_unitary_rejects_nonunitary():
    with pytest.raises(ValueError):
        apply_mode_unitary(vacuum(2), (0, 1), np.array([[1, 0], [0, 2.0]]))


def test_diagonal_phase_zero_is_identity():
    state = apply_mode_unitary(prepare_occupation(2, {0}), (0, 1),
                               np.array([[1, 1j], [1j, 1]]) / np.sqrt(2))
    out = apply_diagonal_phase(state, lambda mask: 0.0)
    assert np.allclose(out.amplitudes, state.amplitudes)


def test_diagonal_phase_global_phase_keeps_probabilities():
    state = prepare_occupation(2, {0})
    out = apply_diagonal_phase(state, lambda mask: 0.7)
    assert fidelity(out, state) == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(out.probabilities(), state.probabilities())


def test_diagonal_phase_pi_on_doubly_occupied():
    amps = np.full(4, 0.5, dtype=complex)
    state = OccupationState(2, amps)
    out = apply_diagonal_phase(state, lambda mask: np.pi if mask == 0b11 else 0.0)
    expected = np.array([0.5, 0.5, 0.5, -0.5])
    assert np.allclose(out.amplitudes, expected, atol=1e-12)


def test_diagonal_phase_accepts_array():
    state = prepare_occupation(2, {1})
    phases = np.array([0.0, 0.0, np.pi, 0.0])
    out = apply_diagonal_phase(state, phases)
    assert out.amplitudes[0b10] == pytest.approx(-1.0, abs=1e-12)


def test_measure_basis_state_deterministic():
    rng = np.random.default_rng(0)
    state = prepare_occupation(2, {0})
    for _ in range(20):
        mask, collapsed = measure_all(state, rng)
        assert mask == 0b01
        assert collapsed.amplitudes[mask] == 1.0


def test_measure_balanced_superposition_statistics():
    amps = np.zeros(4, dtype=complex)
    amps[0b01] = amps[0b10] = 1 / np.sqrt(2)
    state = OccupationState(2, amps)
    rng = np.random.default_rng(123)
    shots = 100_000
    hits = sum(measure_all(state, rng)[0] == 0b01 for _ in range(shots))
    assert hits / shots == pytest.approx(0.5, abs=0.01)


def test_measure_vacuum_always_empty():
    rng = np.random.default_rng(7)
    for _ in range(10):
        mask, _ = measure_all(vacuum(3), rng)
        assert mask == 0


def test_measure_rejects_unnormalized():
    state = OccupationState(1, np.array([0.5, 0.5]), normalized=False)
    with pytest.raises(ValueError):
        measure_all(state, np.random.default_rng(0))


def test_sample_masks_zero_uniform_skips_zero_probability_mask():
    cumulative = np.cumsum([0.0, 0.5, 0.5])
    assert sample_masks(cumulative, np.array([0.0]))[0] == 1
    columns = np.stack([cumulative, cumulative], axis=1)
    assert sample_masks(columns, np.array([0.0, 0.0])).tolist() == [1, 1]


def test_sample_masks_forms_match_reference_loop():
    rng = np.random.default_rng(31)
    probs = rng.random((8, 50)) * (rng.random((8, 50)) < 0.6)
    probs[3] += 0.1
    uniforms = rng.random(50)
    uniforms[:5] = 0.0
    cumulative = np.cumsum(probs, axis=0)
    columns = sample_masks(cumulative, uniforms)
    for i, u in enumerate(uniforms):
        draw = u * cumulative[-1, i]
        expected = next(m for m in range(8) if cumulative[m, i] > draw)
        assert columns[i] == expected
        assert probs[expected, i] > 0
        assert sample_masks(cumulative[:, i], np.array([u]))[0] == expected
    with pytest.raises(ValueError):
        sample_masks(np.zeros(4), np.array([0.5]))


def test_fidelity_self():
    state = prepare_occupation(3, {1})
    assert fidelity(state, state) == pytest.approx(1.0, abs=1e-15)


def test_fidelity_orthogonal():
    assert fidelity(prepare_occupation(2, {0}), prepare_occupation(2, {1})) == 0.0


def test_fidelity_global_phase():
    state = prepare_occupation(2, {0})
    rotated = apply_diagonal_phase(state, lambda mask: 1.23)
    assert fidelity(state, rotated) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_dimension_mismatch():
    with pytest.raises(ValueError):
        fidelity(vacuum(1), vacuum(2))


def test_norm_preserved_through_gate_sequence():
    rng = np.random.default_rng(42)
    state = prepare_occupation(4, {0, 2})
    for _ in range(40):
        rails = tuple(int(r) for r in rng.choice(4, 2, replace=False))
        theta = rng.uniform(0, np.pi)
        u = np.array([[np.cos(theta), 1j * np.sin(theta)],
                      [1j * np.sin(theta), np.cos(theta)]])
        state = apply_mode_unitary(state, rails, u)
    assert abs(state.norm() - 1.0) < 1e-10
