import math

import numpy as np
import pytest

from flyqsim.fock import CapacityError
from flyqsim.gates import (
    DEFAULT_TRANSFER_LENGTH_UM,
    FIFTY_FIFTY_COUPLING_UM,
    CompositeGate,
    CoulombCoupler,
    PhaseShifter,
    WaveguideCoupler,
    apply_element_batch,
    coupler_matrix,
)

import oracles
import sectors
from oracles import build_dense_unitary


def assert_unitary(matrix, atol=1e-10):
    dim = matrix.shape[0]
    assert np.allclose(matrix.conj().T @ matrix, np.eye(dim), atol=atol)


def random_vector(seed, n_rails):
    rng = np.random.default_rng(seed)
    vec = rng.standard_normal(1 << n_rails) + 1j * rng.standard_normal(1 << n_rails)
    return vec / np.linalg.norm(vec)


def evolved_from(n_rails, occupied, element):
    """The 2^n vector of pumps on ``occupied`` after ``element``."""
    k, vector = sectors.loaded(n_rails, occupied)
    apply_element_batch(vector, n_rails, element, k)
    return sectors.scatter(vector, n_rails, k)


# --- phase shifter ----------------------------------------------------


def test_phase_shifter_zero_is_identity():
    vec = random_vector(2, 2)
    element = PhaseShifter(1, 0.0)
    assert np.allclose(sectors.evolve(vec, 2, [element]), vec)
    assert np.allclose(build_dense_unitary(element, 2), np.eye(4))


def test_phase_shifter_pi_flips_occupied_component():
    amps = np.array([1, 1]) / np.sqrt(2)
    out = sectors.evolve(amps, 1, [PhaseShifter(0, np.pi)])
    assert np.allclose(out, np.array([1, -1]) / np.sqrt(2), atol=1e-12)


def test_phase_shifter_leaves_vacuum_alone():
    out = evolved_from(1, set(), PhaseShifter(0, np.pi / 2))
    assert np.allclose(out, [1, 0])


def test_phase_shifter_rejects_nonfinite():
    with pytest.raises(ValueError):
        PhaseShifter(0, float("nan"))
    with pytest.raises(ValueError):
        PhaseShifter(0, float("inf"))


def test_phase_shifter_hardware_range():
    assert PhaseShifter(0, 1.0).hardware_realizable
    assert not PhaseShifter(0, -0.5).hardware_realizable
    assert not PhaseShifter(0, math.pi).hardware_realizable


# --- waveguide coupler ------------------------------------------------


def test_coupler_full_transfer():
    u = coupler_matrix(0.28, 0.28)
    out = evolved_from(2, {0}, WaveguideCoupler((0, 1), 0.28, 0.28))
    assert abs(out[0b10]) ** 2 == pytest.approx(1.0, abs=1e-12)
    assert out[0b10] == pytest.approx(1j, abs=1e-12)
    assert_unitary(u)


def test_coupler_balanced_split():
    out = evolved_from(2, {0}, WaveguideCoupler((0, 1), 0.14, 0.28))
    probs = np.abs(out) ** 2
    assert probs[0b01] == pytest.approx(0.5, abs=1e-12)
    assert probs[0b10] == pytest.approx(0.5, abs=1e-12)


def test_coupler_zero_length_identity():
    assert np.allclose(coupler_matrix(0.0, 0.37), np.eye(2), atol=1e-15)


def test_coupler_length_additivity():
    lt = 0.28
    combined = coupler_matrix(0.1, lt) @ coupler_matrix(0.07, lt)
    assert np.allclose(combined, coupler_matrix(0.17, lt), atol=1e-10)


def test_two_balanced_couplers_equal_full_transfer():
    half = coupler_matrix(FIFTY_FIFTY_COUPLING_UM, DEFAULT_TRANSFER_LENGTH_UM)
    full = coupler_matrix(DEFAULT_TRANSFER_LENGTH_UM, DEFAULT_TRANSFER_LENGTH_UM)
    assert np.allclose(half @ half, full, atol=1e-10)


def test_coupler_matrix_unitary_sweep():
    for lc in np.linspace(0.0, 1.3, 17):
        assert_unitary(coupler_matrix(lc, 0.28))


def test_coupler_rejects_bad_lengths():
    with pytest.raises(ValueError):
        coupler_matrix(0.1, 0.0)
    with pytest.raises(ValueError):
        coupler_matrix(-0.1, 0.28)
    with pytest.raises(ValueError):
        WaveguideCoupler((0, 1), 0.1, -0.2)
    with pytest.raises(ValueError):
        WaveguideCoupler((1, 1), 0.1, 0.28)


# --- Coulomb coupler ---------------------------------------------------


def test_coulomb_phase_zero_identity():
    vec = random_vector(4, 2)
    assert np.allclose(sectors.evolve(vec, 2, [CoulombCoupler((0, 1), 0.0)]), vec)


def test_coulomb_phase_pi_half_flips_doubly_occupied():
    # over (|00>, |10>, |01>, |11>): only the doubly occupied mask changes
    diag = sectors.evolve(np.ones(4), 2, [CoulombCoupler((0, 1), np.pi / 2)])
    assert np.allclose(diag[:3], 1.0)
    assert diag[3] == pytest.approx(-1.0, abs=1e-12)


def test_coulomb_leaves_single_occupation_alone():
    k, start = sectors.loaded(2, {1})
    out = evolved_from(2, {1}, CoulombCoupler((0, 1), 0.9))
    assert np.allclose(out, sectors.scatter(start, 2, k))


def test_coulomb_symmetric_under_rail_swap():
    vec = random_vector(3, 2)
    forward = sectors.evolve(vec, 2, [CoulombCoupler((0, 1), 0.7)])
    backward = sectors.evolve(vec, 2, [CoulombCoupler((1, 0), 0.7)])
    assert np.allclose(forward, backward, atol=1e-12)


def test_coulomb_rejects_nonfinite():
    with pytest.raises(ValueError):
        CoulombCoupler((0, 1), float("nan"))


# --- dense oracle -------------------------------------------------------


def test_dense_identity_coupler():
    u = build_dense_unitary(WaveguideCoupler((0, 1), 0.0, 0.28), 2)
    assert np.allclose(u, np.eye(4), atol=1e-12)


def test_dense_coulomb_truth_table():
    u = build_dense_unitary(CoulombCoupler((0, 1), np.pi / 2), 2)
    assert np.allclose(u, np.diag([1, 1, 1, -1]), atol=1e-12)


def test_dense_coupler_nonadjacent_matches_hand_jw():
    # frozen hand expansion: rails (0, 2) of 3, theta = pi/4.
    # single-electron hopping blocks on (001, 100) and, with the middle rail
    # occupied, sign-flipped on (011, 110); everything else untouched.
    c = s = 1 / np.sqrt(2)
    expected = np.eye(8, dtype=complex)
    expected[0b001, 0b001] = c
    expected[0b001, 0b100] = 1j * s
    expected[0b100, 0b001] = 1j * s
    expected[0b100, 0b100] = c
    expected[0b011, 0b011] = c
    expected[0b011, 0b110] = -1j * s
    expected[0b110, 0b011] = -1j * s
    expected[0b110, 0b110] = c
    u = build_dense_unitary(WaveguideCoupler((0, 2), 0.14, 0.28), 3)
    assert np.allclose(u, expected, atol=1e-10)


@pytest.mark.parametrize("element", [
    PhaseShifter(1, 0.83),
    WaveguideCoupler((0, 2), 0.19, 0.31),
    CoulombCoupler((2, 0), -1.1),
])
def test_dense_unitarity(element):
    assert_unitary(build_dense_unitary(element, 3))


@pytest.mark.parametrize("element", [
    PhaseShifter(0, -0.4),
    WaveguideCoupler((1, 2), 0.23, 0.28),
    WaveguideCoupler((2, 0), 0.4, 0.3),
    CoulombCoupler((0, 2), 1.3),
])
def test_engine_matches_dense_oracle(element):
    vec = random_vector(17, 3)
    engine = sectors.evolve(vec, 3, [element])
    dense = build_dense_unitary(element, 3) @ vec
    assert np.allclose(engine, dense, atol=1e-10)
    independent = oracles.dense_element(element, 3) @ vec
    assert np.allclose(engine, independent, atol=1e-10)


def test_dense_capacity():
    with pytest.raises(CapacityError):
        build_dense_unitary(PhaseShifter(0, 0.1), 7)


def test_dense_rejects_composites():
    with pytest.raises(ValueError):
        build_dense_unitary(CompositeGate("hadamard", (0, 1)), 2)


# --- element plumbing ---------------------------------------------------


def test_footprint_defaults():
    assert WaveguideCoupler((0, 1), 0.14, 0.28).footprint == 0.14
    assert PhaseShifter(0, 0.3).footprint == 0.0
    assert CoulombCoupler((0, 1), 0.5).footprint == 0.0
    assert PhaseShifter(0, 0.3, length=0.8).footprint == 0.8
    assert WaveguideCoupler((0, 1), 0.14, 0.28, length=1.0).footprint == 1.0


@pytest.mark.parametrize("value", [2, np.float64(2.0), "2"],
                         ids=["int", "float64", "str"])
def test_element_lengths_are_stored_as_the_floats_they_are_checked_as(value):
    for element in (PhaseShifter(0, 0.3, length=value),
                    WaveguideCoupler((0, 1), 0.14, 0.28, length=value),
                    CoulombCoupler((0, 1), 0.5, length=value)):
        assert type(element.length) is float and element.length == 2.0
        assert type(element.footprint) is float and element.footprint == 2.0


def test_element_keywords():
    assert PhaseShifter(0, 0.1).keyword == "ps"
    assert WaveguideCoupler((0, 1), 0.1, 0.2).keyword == "bs"
    assert CoulombCoupler((0, 1), 0.1).keyword == "cc"
    assert CompositeGate("fredkin", (0, 1, 2)).keyword == "fredkin"


def test_composite_validation():
    with pytest.raises(ValueError):
        CompositeGate("toffoli", (0, 1, 2))
    with pytest.raises(ValueError):
        CompositeGate("hadamard", (0, 0))
    with pytest.raises(ValueError):
        CompositeGate("fredkin", (0, 1))


def test_apply_element_rejects_composites():
    # a macro has no kernel: a circuit hands its primitives, Circuit.expanded
    with pytest.raises(TypeError, match="not a gate element"):
        apply_element_batch(np.ones(1, dtype=complex), 2,
                            CompositeGate("hadamard", (0, 1)), 0)


@pytest.mark.parametrize("build", [
    lambda: PhaseShifter(True, 0.1),
    lambda: PhaseShifter(0.5, 0.1),
    lambda: WaveguideCoupler((0, 1.0), 0.1, 0.2),
    lambda: CoulombCoupler((False, 1), 0.1),
    lambda: CompositeGate("hadamard", (0.0, 1)),
], ids=["bool ps", "float ps", "float bs", "bool cc", "float macro"])
def test_elements_reject_rails_that_are_not_integers(build):
    with pytest.raises(ValueError, match=r"element rail must be an integer"):
        build()


@pytest.mark.parametrize("use", [
    lambda: build_dense_unitary(PhaseShifter(True, 0.1), 2),
    lambda: build_dense_unitary(PhaseShifter(0.5, 0.1), 2),
    lambda: apply_element_batch(np.ones(1, dtype=complex), 2,
                                PhaseShifter(0.5, 0.1), 0),
], ids=["bool rail dense", "float rail dense", "float rail engine"])
def test_non_integer_rails_raise_value_error_not_a_wrong_matrix(use):
    # True once built the matrix for rail 1; 0.5 failed in a bit shift
    with pytest.raises(ValueError, match=r"element rail must be an integer"):
        use()


def test_elements_accept_numpy_integer_rails():
    rail = np.int64(1)
    element = PhaseShifter(rail, 0.3)
    assert np.array_equal(build_dense_unitary(element, 2),
                          build_dense_unitary(PhaseShifter(1, 0.3), 2))
    numpy_rails = evolved_from(2, {0}, WaveguideCoupler((np.int32(0), rail), 0.1, 0.2))
    int_rails = evolved_from(2, {0}, WaveguideCoupler((0, 1), 0.1, 0.2))
    assert np.array_equal(numpy_rails, int_rails)
