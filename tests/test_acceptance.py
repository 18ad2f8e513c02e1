"""Acceptance suite: one test per release criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Tolerances here are contractual; do not relax them.
"""

import io
import math
import re

import numpy as np

from flyqsim.budget import L_PHI_PRESETS, analyze
from flyqsim.cli import EXIT_DESYNC, EXIT_OK, RunConfig, run
from flyqsim.gates import (
    CoulombCoupler,
    WaveguideCoupler,
    apply_element_batch,
    build_dense_unitary,
    fredkin_circuit,
)
from flyqsim.netlist import Circuit, Segment, parse_circuit, serialize
from flyqsim.timing import DephasingModel, SepSource, run_shots

import corpus
import oracles
import sectors


def report(number, name):
    print(f"[ACCEPTANCE] criterion {number} ({name}): PASS")


def evolve_basis_state(n_rails, mask, elements):
    """The 2^n amplitudes of basis state ``mask`` after ``elements``, evolved
    in its electron-number sector and scattered back."""
    k, vector = sectors.basis_vector(n_rails, mask)
    for element in elements:
        apply_element_batch(vector, n_rails, element, k)
    return sectors.scatter(vector, n_rails, k)


def test_criterion_1_coulomb_coupler_truth_table():
    element = CoulombCoupler((0, 1), math.pi / 2)
    expected_phase = {0b00: 1.0, 0b01: 1.0, 0b10: 1.0, 0b11: -1.0}
    for mask in range(4):
        out = evolve_basis_state(2, mask, [element])
        assert abs(out[mask] - expected_phase[mask]) <= 1e-12
        others = np.delete(out, mask)
        assert np.max(np.abs(others)) <= 1e-12
    report(1, "Coulomb-coupler truth table")


def test_criterion_2_beam_splitter_symmetry():
    balanced = evolve_basis_state(2, 0b01, [WaveguideCoupler((0, 1), 0.14, 0.28)])
    probs = np.abs(balanced) ** 2
    assert abs(probs[0b01] - 0.5) <= 1e-12
    assert abs(probs[0b10] - 0.5) <= 1e-12

    full = evolve_basis_state(2, 0b01, [WaveguideCoupler((0, 1), 0.28, 0.28)])
    assert abs(abs(full[0b10]) ** 2 - 1.0) <= 1e-12
    report(2, "beam-splitter symmetry")


def test_criterion_3_fredkin_behavior():
    elements = fredkin_circuit(0, (1, 2))
    oracle_total = oracles.circuit_unitary(elements, 3)
    for mask in range(8):
        state = evolve_basis_state(3, mask, elements)
        # against the independently coded dense oracle
        oracle_column = oracle_total[:, mask]
        overlap = abs(np.vdot(oracle_column, state)) ** 2
        assert overlap >= 1 - 1e-10
        # and against the ideal controlled-swap permutation, up to phase
        target = oracles.controlled_swap_target(mask, 0, 1, 2)
        assert abs(state[target]) ** 2 >= 1 - 1e-10
    report(3, "Fredkin controlled swap")


def test_criterion_4_coherence_budget():
    empty = Circuit(n_rails=1)
    assert analyze(empty, l_phi=30.0, assumed_gate_length=1.0).feasible_gate_count == 30
    assert analyze(empty, l_phi=L_PHI_PRESETS["gold"],
                   assumed_gate_length=1.0).feasible_gate_count == 18
    report(4, "coherence budget gate counts")


def test_criterion_5_dephasing_convergence():
    l_phi = 30.0
    balanced = dict(coupling_length=0.14, transfer_length=0.28)
    circuit = Circuit(
        n_rails=2,
        elements=[WaveguideCoupler((0, 1), **balanced),
                  WaveguideCoupler((0, 1), **balanced)],
        segments=[Segment(0, l_phi, 1), Segment(1, l_phi, 1)],
        sources=[SepSource(0, 0.0), SepSource(1, 0.0, emits=False)],
        detectors=[0, 1],
    )
    shots = 100_000
    result = run_shots(circuit, shots,
                       dephasing=DephasingModel(l_phi, "monte-carlo"),
                       master_seed=2024)
    crossed = result.counts.get(0b10, 0) / shots
    visibility = 2.0 * crossed - 1.0
    assert abs(visibility - math.exp(-1)) <= 0.02
    report(5, "monte-carlo dephasing visibility")


def test_criterion_6_property_suites():
    rng = np.random.default_rng(20260811)
    n_circuits = 1000

    # (a) norm preservation, (b) electron-number conservation,
    # (c) engine equals the dense oracle, non-adjacent couplers included.
    # A random 2^n vector is split into its electron-number sectors; each
    # is evolved by the engine and the pieces are scattered back
    for _ in range(n_circuits):
        circuit = corpus.random_runnable_circuit(rng, max_rails=6, max_gates=20)
        n = circuit.n_rails
        vec = corpus.random_state_vector(rng, n)
        state = sectors.evolve(vec, n, circuit.elements)
        total = np.eye(1 << n, dtype=complex)
        for element in circuit.elements:
            total = build_dense_unitary(element, n) @ total
        assert abs(np.linalg.norm(state) - 1.0) <= 1e-10
        popcounts = np.bitwise_count(np.arange(1 << n))
        for k in range(n + 1):
            sector = popcounts == k
            before = np.sum(np.abs(vec[sector]) ** 2)
            after = np.sum(np.abs(state[sector]) ** 2)
            assert abs(before - after) <= 1e-10
        assert np.max(np.abs(state - total @ vec)) <= 1e-10

    # (d) netlist round trip on 1000 random circuits
    for _ in range(n_circuits):
        circuit = corpus.random_roundtrip_circuit(rng)
        assert parse_circuit(serialize(circuit)) == circuit

    # (e) seeded reruns are identical
    mz = Circuit(
        n_rails=2,
        elements=[WaveguideCoupler((0, 1), 0.1, 0.28),
                  WaveguideCoupler((0, 1), 0.2, 0.28)],
        segments=[Segment(0, 3.0, 1), Segment(1, 3.0, 1)],
        sources=[SepSource(0, 0.0), SepSource(1, 0.0, emits=False)],
        detectors=[0, 1],
    )
    first = run_shots(mz, 5000, dephasing=DephasingModel(30.0, "mc"),
                      master_seed=77)
    second = run_shots(mz, 5000, dephasing=DephasingModel(30.0, "mc"),
                       master_seed=77)
    assert first.counts == second.counts
    report(6, "property suites a-e")


def test_criterion_7_synchronization_gate(tmp_path):
    velocity = 0.1  # um/ps
    extra_wire = 1.0  # um of uncompensated path on rail 0
    desynced = f"""\
rails 2
sep q0 delay=0ps
sep q1 delay=0ps
segment q0 {extra_wire}um
cc q0 q1 chit=1.5707963rad
set q0
set q1
"""
    path = tmp_path / "desynced.fq"
    path.write_text(desynced)
    out = io.StringIO()
    code = run(RunConfig(input_path=str(path), shots=10, velocity=velocity),
               out=out)
    assert code == EXIT_DESYNC
    text = out.getvalue()
    assert re.search(r"cc q0 q1", text)

    # compensating emission delay on the short path fixes the schedule
    delay = extra_wire / velocity
    fixed = desynced.replace("sep q1 delay=0ps", f"sep q1 delay={delay}ps")
    path.write_text(fixed)
    out = io.StringIO()
    code = run(RunConfig(input_path=str(path), shots=10, velocity=velocity),
               out=out)
    assert code == EXIT_OK
    report(7, "synchronization gate")
