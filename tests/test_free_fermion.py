"""Coulomb-free circuits: single-particle orbitals lifted to the sector.

In ``off`` and ``deterministic-factor`` mode a circuit without a Coulomb
coupler is evolved as ``n x k`` orbitals, ``k`` columns of the one-electron
sector under the stretch kernel (``gates.apply_stretch``), and lifted once
(``fock.lift_columns``).  These tests hold that path to the single-particle
oracle, the sector kernels, a determinant oracle and its dispatch rule.
"""

import math
import tracemalloc

import numpy as np
import pytest

import oracles
from flyqsim import fock, timing
from flyqsim.fock import lift_columns
from flyqsim.gates import (
    CoulombCoupler,
    PhaseShifter,
    WaveguideCoupler,
    apply_element_batch,
    apply_stretch,
)
from flyqsim.netlist import Circuit
from flyqsim.timing import DephasingModel, SepSource, run_shots


def random_free_elements(rng, n_rails, n_elements):
    """Phase shifters and couplers on random pairs, in random order, so
    most couplers are non-adjacent and about half are reversed."""
    elements = []
    for _ in range(n_elements):
        if n_rails < 2 or rng.random() < 0.4:
            elements.append(PhaseShifter(int(rng.integers(n_rails)),
                                         float(rng.uniform(-2 * math.pi, 2 * math.pi))))
        else:
            rails = tuple(int(r) for r in rng.choice(n_rails, 2, replace=False))
            elements.append(WaveguideCoupler(rails, float(rng.uniform(0.0, 0.6)),
                                             float(rng.uniform(0.1, 0.5))))
    return elements


def loaded_circuit(n_rails, elements, occupied):
    return Circuit(n_rails=n_rails, elements=elements,
                   sources=[SepSource(r, 0.0, emits=r in occupied)
                            for r in range(n_rails)])


def with_idle_coulomb(circuit):
    """The same circuit with a trailing ``cc`` of angle 0, which multiplies
    by exactly 1 but sends the run through the sector kernels."""
    elements = circuit.elements + (CoulombCoupler((0, circuit.n_rails - 1), 0.0),)
    return Circuit(n_rails=circuit.n_rails, elements=elements,
                   sources=circuit.sources)


def orbitals(n_rails, occupied):
    columns = np.zeros((n_rails, len(occupied)), dtype=np.complex128)
    columns[sorted(occupied), np.arange(len(occupied))] = 1.0
    return columns


@pytest.mark.parametrize("seed", range(20))
def test_orbitals_evolve_as_the_single_particle_unitary(seed, path):
    # reversed and non-adjacent couplers, every orbital count from 0 to n
    rng = np.random.default_rng([1212, seed])
    n_rails = int(rng.integers(2, 12))
    elements = random_free_elements(rng, n_rails, int(rng.integers(0, 40)))
    elements += [WaveguideCoupler((n_rails - 1, 0), 0.13, 0.28),
                 PhaseShifter(n_rails - 1, 0.7)]
    u = oracles.single_particle_unitary(elements, n_rails)
    for k in range(n_rails + 1):
        occupied = sorted(int(r) for r in rng.choice(n_rails, k, replace=False))
        columns = np.eye(n_rails, dtype=np.complex128)[:, occupied]
        apply_stretch(columns, n_rails, elements, 1)
        assert columns.shape == (n_rails, k)
        assert np.max(np.abs(columns - u[:, occupied]), initial=0.0) <= 1e-13


@pytest.mark.parametrize("seed", range(40))
def test_lifted_amplitudes_match_sector_kernels(seed):
    rng = np.random.default_rng([1313, seed])
    n_rails = int(rng.integers(1, 9))
    elements = random_free_elements(rng, n_rails, int(rng.integers(0, 30)))
    for k in range(n_rails + 1):
        occupied = sorted(int(r) for r in rng.choice(n_rails, k, replace=False))
        sector = fock.sector_basis(n_rails, k)
        state = np.zeros(sector.size, dtype=np.complex128)
        state[np.searchsorted(sector, fock.occupation_mask(n_rails, occupied))] = 1.0
        columns = orbitals(n_rails, occupied)
        for element in elements:
            apply_element_batch(state, n_rails, element, k)
        apply_stretch(columns, n_rails, elements, 1)
        assert np.max(np.abs(fock.lift_columns(columns) - state)) <= 1e-12


@pytest.mark.parametrize("mode", ["off", "factor"])
@pytest.mark.parametrize("seed", range(30))
def test_free_probabilities_match_sector_path(seed, mode):
    rng = np.random.default_rng([1414, seed])
    n_rails = int(rng.integers(2, 9))
    elements = random_free_elements(rng, n_rails, int(rng.integers(0, 30)))
    dephasing = DephasingModel(30.0, mode)
    for k in range(n_rails + 1):
        occupied = set(int(r) for r in rng.choice(n_rails, k, replace=False))
        circuit = loaded_circuit(n_rails, elements, occupied)
        sector, free = timing.outcome_probabilities(circuit, dephasing)
        same, kernels = timing.outcome_probabilities(with_idle_coulomb(circuit),
                                                     dephasing)
        assert sector is same
        assert np.max(np.abs(free - kernels)) <= 1e-12


def test_lift_is_the_ascending_row_determinant():
    rng = np.random.default_rng(8)
    for n_rails in range(1, 7):
        for k in range(n_rails + 1):
            columns = (rng.standard_normal((n_rails, k))
                       + 1j * rng.standard_normal((n_rails, k)))
            lifted = fock.lift_columns(columns)
            for mask, amplitude in zip(fock.sector_basis(n_rails, k).tolist(),
                                       lifted):
                rows = [r for r in range(n_rails) if (mask >> r) & 1]
                assert abs(amplitude - np.linalg.det(columns[rows])) <= 1e-12


def test_lift_plans_are_narrow_and_name_the_minors():
    n_rails, k = 9, 4
    sources, rails = fock._lift_plan(n_rails, k)
    assert sources.dtype == np.int32 and rails.dtype == np.int8
    assert sources.shape == rails.shape == (k, math.comb(n_rails, k))
    assert not sources.flags.writeable and not rails.flags.writeable
    below = fock.sector_basis(n_rails, k - 1)
    for j, mask in enumerate(fock.sector_basis(n_rails, k).tolist()):
        set_bits = [r for r in range(n_rails) if (mask >> r) & 1]
        assert rails[:, j].tolist() == set_bits
        assert below[sources[:, j]].tolist() == [mask ^ (1 << r) for r in set_bits]


@pytest.mark.parametrize("n_rails, occupied", [
    (20, (1, 4, 6, 11, 15, 16, 19)),
    (22, (0, 3, 9, 10, 21)),
    (24, (2, 5, 13)),
    (24, tuple(r for r in range(24) if r not in (1, 8, 17))),
    (30, (0, 7, 18, 29)),
    (40, (3, 20, 39)),
    (63, (0, 31, 62)),
    (63, tuple(r for r in range(63) if r not in (0, 40, 62))),
], ids=["20 rails, 7 electrons", "22 rails, 5 electrons",
        "24 rails, 3 electrons", "24 rails, 21 electrons",
        "30 rails, 4 electrons", "40 rails, 3 electrons",
        "63 rails, 3 electrons", "63 rails, 60 electrons"])
def test_wide_free_probabilities_match_determinant_oracle(n_rails, occupied):
    rng = np.random.default_rng(n_rails)
    elements = random_free_elements(rng, n_rails, 200)
    circuit = loaded_circuit(n_rails, elements, set(occupied))
    sector, probabilities = timing.outcome_probabilities(circuit)
    assert sector.size == math.comb(n_rails, len(occupied))
    assert abs(probabilities.sum() - 1.0) <= 1e-10
    u = oracles.single_particle_unitary(elements, n_rails)
    # sampled masks and the likeliest ones
    positions = np.union1d(rng.choice(sector.size, 150, replace=False),
                           np.argsort(probabilities)[-20:])
    expected = oracles.determinant_probabilities(u, occupied,
                                                 sector[positions].tolist())
    assert np.max(np.abs(probabilities[positions] - expected)) <= 1e-12


@pytest.mark.parametrize("mode, idle_cc, kernels", [
    ("off", False, False),
    ("factor", False, False),
    ("mc", False, True),
    ("off", True, True),
    ("factor", True, True),
])
def test_only_coulomb_free_off_and_factor_runs_skip_the_sector_kernels(
        monkeypatch, mode, idle_cc, kernels):
    # the free path lifts its orbitals, which the kernel evolves over the
    # one-electron sector; the sector path evolves the 3-electron sector and
    # never lifts
    lifts, electrons = [], []

    def lifting(columns):
        lifts.append(columns.shape)
        return lift_columns(columns)

    def counting(*args, **kwargs):
        electrons.append(args[3])
        return apply_stretch(*args, **kwargs)

    monkeypatch.setattr(fock, "lift_columns", lifting)
    monkeypatch.setattr(timing, "apply_stretch", counting)
    rng = np.random.default_rng(3)
    circuit = loaded_circuit(6, random_free_elements(rng, 6, 20), {0, 2, 5})
    if idle_cc:
        circuit = with_idle_coulomb(circuit)
    run_shots(circuit, 100, dephasing=DephasingModel(30.0, mode), master_seed=2)
    assert lifts == ([] if kernels else [(6, 3)])
    assert electrons == ([3] if kernels else [1])


def test_idle_coulomb_twin_samples_the_same_counts():
    rng = np.random.default_rng(10)
    circuit = loaded_circuit(10, random_free_elements(rng, 10, 80), {0, 2, 4, 6, 8})
    for mode in ("off", "factor"):
        dephasing = DephasingModel(30.0, mode)
        free = run_shots(circuit, 5000, dephasing=dephasing, master_seed=6)
        kernels = run_shots(with_idle_coulomb(circuit), 5000, dephasing=dephasing,
                            master_seed=6)
        assert free.counts == kernels.counts


def test_idle_coulomb_twin_matches_on_the_widest_register():
    # 3 electrons on 63 rails (39711 masks), with a reversed coupler from the
    # last rail to the first: its hopping crosses every rail between them
    rng = np.random.default_rng(63)
    elements = random_free_elements(rng, 63, 150)
    elements.append(WaveguideCoupler((62, 0), 0.2, 0.28))
    circuit = loaded_circuit(63, elements, {0, 30, 62})
    sector, free = timing.outcome_probabilities(circuit)
    same, kernels = timing.outcome_probabilities(with_idle_coulomb(circuit))
    assert sector is same and sector.size == math.comb(63, 3)
    assert np.max(np.abs(free - kernels)) <= 1e-12


def _cold_peak(circuit):
    """``tracemalloc`` peak of one ``outcome_probabilities`` call with every
    cache of ``fock`` empty."""
    for cache in (fock.sector_basis, fock._lift_plan, fock._pair_plan,
                  fock._partner_row, fock.rail_occupied_indices,
                  fock.pair_occupied_indices):
        cache.cache_clear()
    tracemalloc.start()
    try:
        timing.outcome_probabilities(circuit)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cold_free_path_peaks_no_higher_than_the_sector_path():
    # an 18-rail, depth-18 mesh with 9 electrons: 48620 masks
    n_rails = 18
    elements = []
    for depth in range(n_rails):
        elements += [PhaseShifter(r, 0.1 * r + depth) for r in range(n_rails)]
        elements += [WaveguideCoupler((a, a + 1), 0.05 + 0.01 * a, 0.28)
                     for a in range(depth % 2, n_rails - 1, 2)]
    circuit = loaded_circuit(n_rails, elements, set(range(0, n_rails, 2)))
    # in complex bytes of the sector (777920): the free path peaked at 11.33
    # (8.8 MB, mostly its cached lift plans), the sector path of the same
    # circuit with an idle cc at 11.83.  The bound is the free path's own,
    # so a leaner sector path cannot fail it
    dim = fock.sector_basis(n_rails, n_rails // 2).size
    assert _cold_peak(circuit) <= 11.5 * 16 * dim
