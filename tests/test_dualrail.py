import numpy as np
import pytest

from flyqsim.dualrail import (
    LEAK,
    DualRailRegister,
    decode,
    encode,
    fredkin_circuit,
    logical_hadamard,
)
from flyqsim.fock import OccupationState, prepare_occupation
from flyqsim.gates import apply_element

import oracles
from oracles import fidelity


def run_elements(state, elements):
    for element in elements:
        state = apply_element(state, element)
    return state


def test_encode_zero_occupies_first_rail():
    register = DualRailRegister(((0, 1),))
    state = encode(register, [0], 2)
    assert state.amplitudes[0b01] == 1.0


def test_encode_one_occupies_second_rail():
    register = DualRailRegister(((0, 1),))
    state = encode(register, [1], 2)
    assert state.amplitudes[0b10] == 1.0


def test_encode_two_qubits_product():
    register = DualRailRegister(((0, 1), (2, 3)))
    state = encode(register, [1, 0], 4)
    # qubit 0 on its 1-rail (rail 1), qubit 1 on its 0-rail (rail 2)
    assert state.amplitudes[0b0110] == 1.0


def test_encode_validation():
    register = DualRailRegister(((0, 1),))
    with pytest.raises(ValueError):
        encode(register, [0, 1], 2)
    with pytest.raises(ValueError):
        encode(register, [2], 2)
    with pytest.raises(ValueError):
        DualRailRegister(((0, 1), (1, 2)))


def test_decode_patterns():
    register = DualRailRegister(((0, 1),))
    assert decode(0b01, register).bits == (0,)
    assert decode(0b10, register).bits == (1,)
    assert decode(0b00, register).bits == (LEAK,)
    assert decode(0b11, register).bits == (LEAK,)


def test_decode_multi_qubit_and_rendering():
    register = DualRailRegister(((0, 1), (2, 3)))
    outcome = decode(0b1001, register)  # rails 0 and 3 occupied
    assert outcome.bits == (0, 1)
    assert str(outcome) == "01"
    assert not outcome.has_leak
    leaky = decode(0b0111, register)  # pair (0,1) doubly occupied
    assert leaky.bits == (LEAK, 0)
    assert str(leaky) == "L0"
    assert leaky.has_leak


# --- logical Hadamard ----------------------------------------------------


def test_hadamard_balanced_probabilities_exact():
    register = DualRailRegister(((0, 1),))
    state = run_elements(encode(register, [0], 2), logical_hadamard((0, 1)))
    probs = state.probabilities()
    assert probs[0b01] == pytest.approx(0.5, abs=1e-12)
    assert probs[0b10] == pytest.approx(0.5, abs=1e-12)
    assert probs[0b00] == pytest.approx(0.0, abs=1e-12)
    assert probs[0b11] == pytest.approx(0.0, abs=1e-12)


def test_hadamard_involutive():
    register = DualRailRegister(((0, 1),))
    for bit in (0, 1):
        start = encode(register, [bit], 2)
        twice = run_elements(run_elements(start, logical_hadamard((0, 1))),
                             logical_hadamard((0, 1)))
        assert fidelity(start, twice) >= 1 - 1e-10


def test_hadamard_subspace_matrix_matches_oracle():
    elements = logical_hadamard((0, 1))
    total = oracles.circuit_unitary(elements, 2)
    sub = total[np.ix_([0b01, 0b10], [0b01, 0b10])]
    hadamard = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    # global phase comes out to exactly 1 with the chosen trim phases
    assert np.allclose(sub, hadamard, atol=1e-10)


def test_hadamard_preserves_code_space():
    register = DualRailRegister(((0, 1),))
    state = run_elements(encode(register, [1], 2), logical_hadamard((0, 1)))
    assert state.probabilities()[0b00] == pytest.approx(0.0, abs=1e-12)
    assert state.probabilities()[0b11] == pytest.approx(0.0, abs=1e-12)


def test_hadamard_rejects_degenerate_pair():
    with pytest.raises(ValueError):
        logical_hadamard((2, 2))


# --- Fredkin --------------------------------------------------------------


def fredkin_state(input_rails, control=0, targets=(1, 2)):
    state = prepare_occupation(3, input_rails)
    return run_elements(state, fredkin_circuit(control, targets))


def test_fredkin_control_off_identity():
    out = fredkin_state({1})  # |c a b> = |0 1 0>
    assert fidelity(out, prepare_occupation(3, {1})) >= 1 - 1e-10


def test_fredkin_control_on_swaps():
    out = fredkin_state({0, 1})  # |1 1 0> -> |1 0 1> up to phase
    assert fidelity(out, prepare_occupation(3, {0, 2})) >= 1 - 1e-10


def test_fredkin_vacuum_target_invariant():
    out = fredkin_state({0})  # |1 0 0>
    assert fidelity(out, prepare_occupation(3, {0})) >= 1 - 1e-10


def test_fredkin_permutation_structure_vs_oracle():
    elements = fredkin_circuit(0, (1, 2))
    total = oracles.circuit_unitary(elements, 3)
    for mask in range(8):
        column = total[:, mask]
        target = oracles.controlled_swap_target(mask, 0, 1, 2)
        assert abs(column[target]) == pytest.approx(1.0, abs=1e-10)
        off = np.sum(np.abs(column) ** 2) - abs(column[target]) ** 2
        assert off == pytest.approx(0.0, abs=1e-10)


def test_fredkin_engine_matches_oracle_columns():
    elements = fredkin_circuit(0, (1, 2))
    total = oracles.circuit_unitary(elements, 3)
    for mask in range(8):
        vec = np.zeros(8, dtype=complex)
        vec[mask] = 1.0
        engine = run_elements(OccupationState(3, vec), elements)
        assert np.allclose(engine.amplitudes, total @ vec, atol=1e-10)


def test_fredkin_control_between_targets():
    # jordan-wigner signs change but the controlled swap survives
    elements = fredkin_circuit(1, (0, 2))
    total = oracles.circuit_unitary(elements, 3)
    for mask in range(8):
        target = oracles.controlled_swap_target(mask, 1, 0, 2)
        assert abs(total[target, mask]) == pytest.approx(1.0, abs=1e-10)


def test_fredkin_branch_phases_are_global():
    # control empty: identity exactly; control set: swap up to one phase
    total = oracles.circuit_unitary(fredkin_circuit(0, (1, 2)), 3)
    off_block = total[np.ix_([0b010, 0b100], [0b010, 0b100])]
    assert np.allclose(off_block, np.eye(2), atol=1e-10)
    on_block = total[np.ix_([0b011, 0b101], [0b011, 0b101])]
    swap = np.array([[0, 1], [1, 0]])
    phase = on_block[0, 1]
    assert abs(phase) == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(on_block, phase * swap, atol=1e-10)


def test_fredkin_rejects_rail_collisions():
    with pytest.raises(ValueError):
        fredkin_circuit(0, (0, 1))
    with pytest.raises(ValueError):
        fredkin_circuit(2, (1, 1))
