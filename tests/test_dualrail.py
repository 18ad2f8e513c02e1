import numpy as np
import pytest

from flyqsim.dualrail import decode
from flyqsim.gates import apply_element_batch, fredkin_circuit, logical_hadamard
from flyqsim.netlist import Circuit
from flyqsim.timing import SepSource, outcome_probabilities, run_shots

import oracles
import sectors
from oracles import fidelity


def encoded(pairs, bits, n_rails, elements=()):
    """Circuit whose pumps load ``bits`` into the registers on ``pairs``: bit
    0 on the first rail of its pair, bit 1 on the second, the other rails
    empty."""
    loaded = {pair[bit] for bit, pair in zip(bits, pairs)}
    return Circuit(
        n_rails=n_rails, elements=list(elements),
        sources=[SepSource(r, 0.0, emits=r in loaded) for r in range(n_rails)],
        detectors=list(range(n_rails)),
        registers=[(f"r{i}", pair) for i, pair in enumerate(pairs)])


def run_elements(n_rails, occupied, elements):
    """Sector vector of pumps on ``occupied`` after ``elements``."""
    k, vector = sectors.loaded(n_rails, occupied)
    for element in elements:
        apply_element_batch(vector, n_rails, element, k)
    return vector


def test_encode_zero_occupies_first_rail():
    sector, p = outcome_probabilities(encoded([(0, 1)], [0], 2))
    assert sector.tolist() == [0b01, 0b10]
    assert p.tolist() == [1.0, 0.0]
    assert decode(0b01, [(0, 1)]) == "0"


def test_encode_one_occupies_second_rail():
    sector, p = outcome_probabilities(encoded([(0, 1)], [1], 2))
    assert p[sector.tolist().index(0b10)] == 1.0
    assert decode(0b10, [(0, 1)]) == "1"


def test_encode_two_qubits_product():
    circuit = encoded([(0, 1), (2, 3)], [1, 0], 4)
    assert circuit.registers == (("r0", (0, 1)), ("r1", (2, 3)))
    # qubit 0 on its 1-rail (rail 1), qubit 1 on its 0-rail (rail 2)
    result = run_shots(circuit, 20, master_seed=1)
    assert result.counts == {0b0110: 20}
    assert result.logical_counts == {"10": 20}
    assert result.leak_count == 0


def registers(*pairs):
    """A 4-rail circuit declaring one register per pair."""
    return Circuit(4, registers=[(f"r{i}", pair) for i, pair in enumerate(pairs)])


@pytest.mark.parametrize("rail", [0.7, 1.0, True, False])
def test_register_rejects_rails_that_are_not_integers(rail):
    # int() once read (0.7, 1.2) as rails (0, 1) and True as rail 1
    with pytest.raises(ValueError, match=r"register rail must be an integer"):
        registers((rail, 2))
    with pytest.raises(ValueError, match=r"register rail must be an integer"):
        registers((2, rail))


def test_register_rejects_negative_and_repeated_rails():
    # a negative rail once failed only later, in decode's bit shift
    with pytest.raises(ValueError, match=r"register 'r0' rail -1 outside \[0, 4\)"):
        registers((-1, 1))
    with pytest.raises(ValueError, match=r"register rails must be distinct: "
                                         r"register 'r1' repeats rail 1"):
        registers((0, 1), (1, 2))


@pytest.mark.parametrize("pair", [(0,), (0, 1, 2), ()], ids=["one", "three", "none"])
def test_register_rejects_a_wrong_number_of_rails(pair):
    # three rails once failed with "too many values to unpack"
    with pytest.raises(ValueError, match=rf"register 'r0' needs two rails, "
                                         rf"got {len(pair)}"):
        registers(pair)


def test_register_accepts_numpy_integers():
    circuit = registers((np.int64(0), np.int32(3)), (np.uint8(1), 2))
    assert circuit.registers == (("r0", (0, 3)), ("r1", (1, 2)))
    assert all(type(r) is int for _, pair in circuit.registers for r in pair)
    assert decode(0b1010, [pair for _, pair in circuit.registers]) == "10"


def test_decode_patterns():
    assert decode(0b01, [(0, 1)]) == "0"
    assert decode(0b10, [(0, 1)]) == "1"
    assert decode(0b00, [(0, 1)]) == "L"
    assert decode(0b11, [(0, 1)]) == "L"


def test_decode_multi_qubit_and_rendering():
    pairs = [(0, 1), (2, 3)]
    assert decode(0b1001, pairs) == "01"  # rails 0 and 3 occupied
    assert decode(0b0111, pairs) == "L0"  # pair (0,1) doubly occupied
    assert decode(0b0101, [(2, 3), (1, 0)]) == "01"  # in declaration order
    assert decode(0b1111, []) == ""


def test_leaked_shots_are_counted_by_their_key():
    # the pumps load rails 0 and 1: pair (0, 1) is doubly occupied and pair
    # (2, 3) empty, so every shot leaks on both
    circuit = Circuit(4, sources=[SepSource(r, 0.0, emits=r < 2) for r in range(4)],
                      registers=[("a", (0, 1)), ("b", (2, 3))])
    result = run_shots(circuit, 7, master_seed=2)
    assert result.logical_counts == {"LL": 7}
    assert result.leak_count == 7


# --- logical Hadamard ----------------------------------------------------


def test_hadamard_balanced_probabilities_exact():
    circuit = encoded([(0, 1)], [0], 2, logical_hadamard((0, 1)))
    sector, probs = outcome_probabilities(circuit)
    # the empty and the doubly occupied pair lie outside the loaded sector
    assert sector.tolist() == [0b01, 0b10]
    assert probs[0] == pytest.approx(0.5, abs=1e-12)
    assert probs[1] == pytest.approx(0.5, abs=1e-12)


def test_hadamard_involutive():
    for rail in (0, 1):
        start = run_elements(2, {rail}, [])
        twice = run_elements(2, {rail}, logical_hadamard((0, 1)) * 2)
        assert fidelity(start, twice) >= 1 - 1e-10


def test_hadamard_subspace_matrix_matches_oracle():
    elements = logical_hadamard((0, 1))
    total = oracles.circuit_unitary(elements, 2)
    sub = total[np.ix_([0b01, 0b10], [0b01, 0b10])]
    hadamard = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    # global phase comes out to exactly 1 with the chosen trim phases
    assert np.allclose(sub, hadamard, atol=1e-10)


def test_hadamard_preserves_code_space():
    circuit = encoded([(0, 1)], [1], 2, logical_hadamard((0, 1)))
    result = run_shots(circuit, 2000, master_seed=5)
    assert result.leak_count == 0
    assert set(result.counts) <= {0b01, 0b10}
    sector, probs = outcome_probabilities(circuit)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_hadamard_rejects_degenerate_pair():
    with pytest.raises(ValueError):
        logical_hadamard((2, 2))


# --- Fredkin --------------------------------------------------------------


def fredkin_state(input_rails, control=0, targets=(1, 2)):
    return run_elements(3, input_rails, fredkin_circuit(control, targets))


def test_fredkin_control_off_identity():
    out = fredkin_state({1})  # |c a b> = |0 1 0>
    assert fidelity(out, run_elements(3, {1}, [])) >= 1 - 1e-10


def test_fredkin_control_on_swaps():
    out = fredkin_state({0, 1})  # |1 1 0> -> |1 0 1> up to phase
    assert fidelity(out, run_elements(3, {0, 2}, [])) >= 1 - 1e-10


def test_fredkin_vacuum_target_invariant():
    out = fredkin_state({0})  # |1 0 0>
    assert fidelity(out, run_elements(3, {0}, [])) >= 1 - 1e-10


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
        k, vector = sectors.basis_vector(3, mask)
        for element in elements:
            apply_element_batch(vector, 3, element, k)
        assert np.allclose(sectors.scatter(vector, 3, k), total[:, mask],
                           atol=1e-10)


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
