"""The run's block: the masks that keep each coupler-connected rail group's
electron count.

A waveguide coupler moves an electron between its two rails only, and phase
shifters and Coulomb couplers are diagonal, so a run never leaves the masks
whose electron count on each group of rails the couplers connect is the
loaded one (``timing._block``, ``fock.block_basis``).  These tests hold the
block to the whole sector, evolved by the element-by-element reference
(``sectors.sector_probabilities``) and, up to ``oracles.MAX_DENSE_RAILS``,
to the dense oracles, and pin what the block adds: runs whose sector or
dense rho is past the cap.
"""

import math

import numpy as np
import pytest

import corpus
import oracles
import sectors
from flyqsim import fock, timing
from flyqsim.dualrail import decode
from flyqsim.fock import CapacityError
from flyqsim.gates import (
    CompositeGate,
    CoulombCoupler,
    PhaseShifter,
    WaveguideCoupler,
)
from flyqsim.netlist import Circuit, Segment
from flyqsim.timing import DephasingModel, SepSource, outcome_probabilities, run_shots

MODES = ["off", "factor", "mc"]
L_PHI = 10.0


def block_of(circuit):
    circuit = circuit.expanded
    loaded = sum(1 << s.rail for s in circuit.sources if s.emits)
    return timing._block(circuit.n_rails, circuit.columns, loaded)


def random_dual_rail_circuit(rng, max_rails=12):
    """Dual-rail registers on random rail pairs, spectator rails that no
    coupler reaches, and random ``hadamard``, ``fredkin``, ``cc`` and ``ps``
    elements, sometimes a ``bs`` that joins two registers, with wire.  A
    register loads one electron, or sometimes none or two."""
    n_qubits = int(rng.integers(1, max_rails // 2 + 1))
    n_rails = int(rng.integers(2 * n_qubits, max_rails + 1))
    order = [int(r) for r in rng.permutation(n_rails)]
    pairs = [tuple(order[2 * q:2 * q + 2]) for q in range(n_qubits)]
    loaded = set()
    for pair in pairs:
        pick = rng.random()
        loaded |= (set() if pick < 0.1 else set(pair) if pick < 0.2
                   else {pair[int(rng.integers(2))]})
    loaded |= {r for r in order[2 * n_qubits:] if rng.random() < 0.5}
    elements = []
    for _ in range(int(rng.integers(1, 16))):
        pick = rng.random()
        pair = pairs[int(rng.integers(n_qubits))]
        if pick < 0.35:
            elements.append(CompositeGate("hadamard", pair))
        elif pick < 0.55 and n_rails > 2:
            control = int(rng.choice([r for r in range(n_rails) if r not in pair]))
            elements.append(CompositeGate("fredkin", (control, *pair)))
        elif pick < 0.75:
            a, b = (int(r) for r in rng.choice(n_rails, 2, replace=False))
            elements.append(CoulombCoupler((a, b), float(rng.uniform(-math.pi, math.pi))))
        elif pick < 0.95 or n_qubits < 2:
            elements.append(PhaseShifter(int(rng.integers(n_rails)),
                                         float(rng.uniform(-math.pi, math.pi))))
        else:
            other = pairs[int(rng.integers(n_qubits))]
            if other != pair:
                elements.append(WaveguideCoupler((pair[1], other[0]), 0.09, 0.28))
    segments = [Segment(int(rng.integers(n_rails)), float(rng.uniform(0.0, 20.0)),
                        int(rng.integers(len(elements) + 1)))
                for _ in range(int(rng.integers(0, 5)))]
    return Circuit(n_rails=n_rails, elements=elements, segments=segments,
                   sources=[SepSource(r, 0.0, emits=r in loaded) for r in range(n_rails)],
                   registers=[(f"r{q}", pair) for q, pair in enumerate(pairs)])


def corpus_circuit(rng, index):
    return (corpus.random_roundtrip_circuit, corpus.random_runnable_circuit,
            corpus.random_dephased_circuit)[index % 3](rng)


def assert_block_is_the_sector(circuit, mode):
    """The block's probabilities are the sector's within 1e-12, and the
    sector's probability off the block is exactly 0."""
    basis, p = outcome_probabilities(circuit, DephasingModel(L_PHI, mode))
    sector, reference = sectors.sector_probabilities(
        circuit, L_PHI if mode == "mc" else None)
    keep = sectors.in_block(sector, block_of(circuit))
    assert np.array_equal(sector[keep], basis)
    assert np.all(reference[~keep] == 0.0)
    assert np.max(np.abs(p - reference[keep])) <= 1e-12
    return basis, p


def full_space(circuit, basis, p):
    full = np.zeros(1 << circuit.n_rails)
    full[basis] = p
    return full


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("seed", range(12))
def test_random_dual_rail_blocks_match_the_sector(seed, mode, path):
    rng = np.random.default_rng([3535, seed])
    for _ in range(3):
        circuit = random_dual_rail_circuit(rng)
        basis, p = assert_block_is_the_sector(circuit, mode)
        if circuit.n_rails <= oracles.MAX_DENSE_RAILS:
            expanded = circuit.expanded
            if mode != "mc":  # no wire: the noiseless run
                expanded = Circuit(n_rails=expanded.n_rails, elements=expanded.elements,
                                   sources=expanded.sources)
            expected = oracles.dense_rho_probabilities(expanded, L_PHI)
            assert np.max(np.abs(full_space(circuit, basis, p) - expected)) <= 1e-12


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("seed", range(30))
def test_corpus_blocks_match_the_sector(seed, mode):
    rng = np.random.default_rng([3636, seed])
    circuit = corpus_circuit(rng, seed)
    basis, p = assert_block_is_the_sector(circuit, mode)
    if mode == "mc" and circuit.n_rails <= 4 and len(circuit.segments) <= 2:
        expected = oracles.gauss_hermite_probabilities(circuit.expanded, L_PHI)
        assert np.max(np.abs(full_space(circuit, basis, p) - expected)) <= 1e-12


@pytest.mark.parametrize("mode", MODES)
def test_without_a_coupler_the_block_is_the_loaded_mask(mode):
    circuit = Circuit(n_rails=4, elements=[PhaseShifter(1, 0.3),
                                           CoulombCoupler((0, 2), 0.7),
                                           CoulombCoupler((1, 3), -0.2)],
                      segments=[Segment(r, 2.0, 1) for r in range(4)],
                      sources=[SepSource(r, 0.0, emits=r in (0, 2)) for r in range(4)])
    assert block_of(circuit) == ((1, 1), (2, 0), (4, 1), (8, 0))
    basis, p = assert_block_is_the_sector(circuit, mode)
    assert basis.tolist() == [0b0101] and p.tolist() == [1.0]


@pytest.mark.parametrize("mode", MODES)
def test_empty_and_full_registers_keep_their_count(mode):
    # three registers loaded with none, one and two electrons, each through a
    # hadamard, a Coulomb coupler between them and wire
    elements = [CompositeGate("hadamard", pair) for pair in ((0, 1), (2, 3), (4, 5))]
    elements += [CoulombCoupler((1, 2), 0.8), CoulombCoupler((3, 4), 0.5)] + elements
    circuit = Circuit(n_rails=6, elements=elements,
                      segments=[Segment(r, 1.0 + r, 3) for r in range(6)],
                      sources=[SepSource(r, 0.0, emits=r in (2, 4, 5)) for r in range(6)],
                      registers=[("e", (0, 1)), ("q", (2, 3)), ("f", (4, 5))])
    assert block_of(circuit) == ((0b11, 0), (0b1100, 1), (0b110000, 2))
    basis, _ = assert_block_is_the_sector(circuit, mode)
    assert basis.tolist() == [0b110100, 0b111000]


def test_a_coupler_joining_two_registers_joins_their_groups():
    elements = [CompositeGate("hadamard", (0, 1)), CompositeGate("hadamard", (2, 3)),
                WaveguideCoupler((1, 2), 0.1, 0.28), CompositeGate("hadamard", (4, 5))]
    circuit = Circuit(n_rails=7, elements=elements,
                      sources=[SepSource(r, 0.0, emits=r in (0, 2, 4, 6))
                               for r in range(7)])
    assert block_of(circuit) == ((0b1111, 2), (0b110000, 1), (0b1000000, 1))
    for mode in MODES:
        basis, _ = assert_block_is_the_sector(circuit, mode)
        assert basis.size == math.comb(4, 2) * 2


@pytest.mark.parametrize("mode", MODES)
def test_one_group_is_the_whole_sector(mode):
    elements = [WaveguideCoupler((r, r + 1), 0.05 * (r + 1), 0.28) for r in range(5)]
    elements += [CoulombCoupler((0, 5), 0.4), PhaseShifter(3, 0.2)] + elements
    circuit = Circuit(n_rails=6, elements=elements,
                      segments=[Segment(r, 2.0, 5) for r in range(6)],
                      sources=[SepSource(r, 0.0, emits=r % 2 == 0) for r in range(6)])
    assert block_of(circuit) == fock.sector_block(6, 3)
    basis, _ = assert_block_is_the_sector(circuit, mode)
    assert basis is fock.sector_basis(6, 3)


def test_the_group_search_reads_couplers_only_and_closes_chains():
    # a chain over 0-2-5-7 reached only through two hops, a cc and a ps that
    # join nothing, and a coupler repeated
    elements = [WaveguideCoupler((5, 7), 0.1, 0.28), WaveguideCoupler((2, 0), 0.1, 0.28),
                CoulombCoupler((1, 3), 0.3), PhaseShifter(4, 0.2),
                WaveguideCoupler((2, 5), 0.1, 0.28), WaveguideCoupler((5, 2), 0.2, 0.28)]
    columns = Circuit(n_rails=8, elements=elements).columns
    block = timing._block(8, columns, 0b10000101)
    assert block == ((0b10100101, 3), (0b10, 0), (0b1000, 0), (0b10000, 0), (0b1000000, 0))


@pytest.mark.parametrize("n_rails", range(1, 11))
def test_block_basis_is_the_sector_filtered_by_group_counts(n_rails):
    rng = np.random.default_rng([77, n_rails])
    masks = np.arange(1 << n_rails)
    for _ in range(10):
        labels = rng.integers(0, int(rng.integers(1, n_rails + 1)), n_rails)
        groups = sorted({sum(1 << r for r in range(n_rails) if labels[r] == g)
                         for g in labels.tolist()})
        block = tuple((g, int(rng.integers(0, g.bit_count() + 1))) for g in groups)
        basis = fock.block_basis(n_rails, block)
        assert basis.tolist() == masks[sectors.in_block(masks, block)].tolist()
        assert not basis.flags.writeable


def test_block_basis_refuses_a_malformed_block():
    for block in (((0b011, 1), (0b110, 1)),    # groups overlap
                  ((0b011, 1),),                # rail 2 in no group
                  ((0b011, 3), (0b100, 0)),     # three electrons on two rails
                  ((0b111, -1),),
                  ((0, 0), (0b111, 1)),         # an empty group
                  ((0b1011, 1), (0b100, 0))):   # a rail past the register
        with pytest.raises(ValueError):
            fock.block_basis(3, block)


def test_a_block_past_the_cap_is_refused_before_it_is_built():
    half = (1 << 26) - 1
    before = fock.sector_basis.cache_info().currsize
    with pytest.raises(CapacityError, match=r"the block of 26 electrons in 2 rail "
                                            r"groups of 52 rails has "
                                            r"108172480360000 amplitudes, above "
                                            r"the cap of 2\^24"):
        fock.block_basis(52, ((half, 13), (half << 26, 13)))
    assert fock.sector_basis.cache_info().currsize == before


@pytest.mark.parametrize("block", [((0b0011, 1), (0b1100, 1)),
                                   ((0b0011, 1), (0b0100, 1), (0b1000, 0))])
def test_a_coupler_across_groups_is_refused_before_the_state_changes(block, path):
    basis = fock.block_basis(4, block)
    state = np.full(basis.size, 0.5, dtype=complex)
    elements = [PhaseShifter(0, 0.3), WaveguideCoupler((0, 1), 0.1, 0.28),
                WaveguideCoupler((3, 1), 0.1, 0.28)]
    with pytest.raises(ValueError, match="a coupler on rails 1 and 3 joins two groups"):
        timing.apply_stretch(state, 4, elements, block)
    assert np.all(state == 0.5)
    with pytest.raises(ValueError, match="a coupler on rails 1 and 2 joins two groups"):
        fock.mode_unitary_batch(state, 4, (2, 1), np.eye(2), block)


def test_free_path_returns_the_block_and_exact_zeros_leave():
    # no cc: the orbitals are lifted to the sector, then only the block's
    # entries are kept; the others are exact zeros
    elements = [CompositeGate("hadamard", (0, 1)), WaveguideCoupler((2, 3), 0.1, 0.28),
                PhaseShifter(3, 0.4), WaveguideCoupler((3, 4), 0.2, 0.28)]
    circuit = Circuit(n_rails=6, elements=elements,
                      sources=[SepSource(r, 0.0, emits=r in (0, 3, 5)) for r in range(6)])
    block = block_of(circuit)
    basis, p = outcome_probabilities(circuit)
    assert basis is fock.block_basis(6, block)
    lifted = timing._free_probabilities(circuit.expanded, 0b101001)
    keep = sectors.in_block(fock.sector_basis(6, 3), block)
    assert np.all(lifted[~keep] == 0.0)
    assert np.array_equal(lifted[keep], p)


@pytest.mark.parametrize("wire", [3.0, 10.0])
def test_nine_superposed_qubits_dephase_in_mc(wire):
    # 2^9 masks in the 48620-mask sector of 18 rails: the sector's dense rho
    # is past the cap, the block's is not.  Each qubit's two arms dephase by
    # exp(-wire / l_phi), so P(all 0) = ((1 + exp(-wire / l_phi)) / 2)^9
    n_qubits, l_phi = 9, 30.0
    pairs = [(2 * q, 2 * q + 1) for q in range(n_qubits)]
    hadamards = [CompositeGate("hadamard", pair) for pair in pairs]
    circuit = Circuit(n_rails=18, elements=hadamards + hadamards,
                      segments=[Segment(r, wire, n_qubits) for r in range(18)],
                      sources=[SepSource(r, 0.0, emits=r % 2 == 0) for r in range(18)],
                      registers=[(f"q{i}", pair) for i, pair in enumerate(pairs)])
    basis, p = outcome_probabilities(circuit, DephasingModel(l_phi, "mc"))
    assert basis.size == 2 ** n_qubits
    all_zero = p[basis.searchsorted(sum(1 << a for a, _ in pairs))]
    expected = ((1.0 + math.exp(-wire / l_phi)) / 2.0) ** n_qubits
    assert abs(all_zero - expected) <= 1e-12
    assert abs(p.sum() - 1.0) <= 1e-12


def test_sixteen_qubits_with_a_coulomb_coupler_run_off():
    # C(32, 16) = 6.0e8 masks in the sector, 2^16 in the block
    n_qubits = 16
    pairs = [(2 * q, 2 * q + 1) for q in range(n_qubits)]
    elements = [CompositeGate("hadamard", pair) for pair in pairs]
    elements.append(CoulombCoupler((1, 3), 0.7))
    circuit = Circuit(n_rails=32, elements=elements,
                      sources=[SepSource(r, 0.0, emits=r % 2 == 0) for r in range(32)],
                      registers=[(f"q{i}", pair) for i, pair in enumerate(pairs)])
    basis, p = outcome_probabilities(circuit)
    assert basis.size == 2 ** n_qubits
    assert not any("L" in decode(mask, pairs) for mask in basis.tolist())
    assert np.max(np.abs(p - 2.0 ** -n_qubits)) <= 1e-12
    assert run_shots(circuit, 1000, master_seed=5).leak_count == 0
