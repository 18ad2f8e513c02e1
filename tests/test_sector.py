"""Electron-number sector engine: basis, index helpers and shot sampling."""

import math
import tracemalloc

import numpy as np
import pytest

import oracles
import sectors
from corpus import random_runnable_circuit
from flyqsim import fock
from flyqsim.gates import (
    CoulombCoupler,
    PhaseShifter,
    WaveguideCoupler,
    apply_element_batch,
)
from flyqsim.netlist import Circuit, Segment
from flyqsim.timing import DephasingModel, SepSource, run_shots


@pytest.mark.parametrize("n_rails", range(1, 11))
def test_sector_basis_lists_masks_by_popcount(n_rails):
    masks = np.arange(1 << n_rails)
    for k in range(n_rails + 1):
        basis = fock.sector_basis(n_rails, k)
        assert basis.size == math.comb(n_rails, k)
        assert np.array_equal(basis, masks[np.bitwise_count(masks) == k])
        assert not basis.flags.writeable


def test_sector_basis_rejects_impossible_counts():
    with pytest.raises(ValueError):
        fock.sector_basis(3, 4)
    with pytest.raises(ValueError):
        fock.sector_basis(3, -1)


def test_index_helpers_return_sector_positions():
    n_rails, k = 7, 3
    basis = fock.sector_basis(n_rails, k)
    for rail in range(n_rails):
        idx = fock.rail_occupied_indices(n_rails, rail, fock.sector_block(n_rails, k))
        assert np.array_equal(basis[idx], [m for m in basis if (m >> rail) & 1])
    for a in range(n_rails):
        for b in range(a + 1, n_rails):
            idx = fock.pair_occupied_indices(n_rails, a, b, fock.sector_block(n_rails, k))
            assert np.array_equal(
                basis[idx], [m for m in basis if (m >> a) & (m >> b) & 1])
            positions, signs = fock._pair_plan(n_rails, a, b, fock.sector_block(n_rails, k))
            hops = signs.size
            m10, m01 = positions[:hops], positions[hops:2 * hops]
            m11 = positions[2 * hops:]
            only_a = [m for m in basis if (m >> a) & 1 and not (m >> b) & 1]
            assert np.array_equal(basis[m10], only_a)
            assert np.array_equal(basis[m01], basis[m10] ^ ((1 << a) | (1 << b)))
            assert np.array_equal(basis[m11],
                                  [m for m in basis if (m >> a) & (m >> b) & 1])
            between = sum(1 << r for r in range(a + 1, b))
            assert signs.tolist() == [(-1) ** (m & between).bit_count()
                                      for m in only_a]
            assert (positions.dtype, signs.dtype) == (np.intp, np.float64)


@pytest.mark.parametrize("seed", range(60))
def test_sector_evolution_matches_full_space_bit_for_bit(seed):
    """Every sector evolves as the dense 2^n oracle's matrix restricted to
    it, within 1e-12, and the readout of the loaded sector is the readout
    over all 2^n masks bit for bit: the other masks have probability 0 and
    only repeat a cumulative value, so the same uniforms count the same
    masks.  (Byte-identical output across versions is pinned by the
    machine-output goldens.)"""
    rng = np.random.default_rng([77, seed])
    circuit = random_runnable_circuit(rng, max_rails=7, max_gates=25)
    n_rails = circuit.n_rails
    occupied = [s.rail for s in circuit.sources if s.emits]
    total = oracles.circuit_unitary(circuit.elements, n_rails)

    for k in range(n_rails + 1):
        dim = fock.sector_basis(n_rails, k).size
        start = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        state = start.copy()
        for element in circuit.elements:
            apply_element_batch(state, n_rails, element, fock.sector_block(n_rails, k))
        assert np.max(np.abs(state - sectors.restrict(total, n_rails, k) @ start),
                      initial=0.0) <= 1e-12 * np.linalg.norm(start)

    k, state = sectors.loaded(n_rails, occupied)
    for element in circuit.elements:
        apply_element_batch(state, n_rails, element, fock.sector_block(n_rails, k))
    full = sectors.scatter(state, n_rails, k)
    column = total[:, fock.occupation_mask(n_rails, occupied)]
    assert np.max(np.abs(full - column)) <= 1e-12
    uniforms = rng.random(500)
    uniforms[:3] = 0.0
    on_sector = fock.sample_counts(np.cumsum(np.abs(state) ** 2), uniforms,
                                   np.zeros(state.size, dtype=np.intp))
    on_all = fock.sample_counts(np.cumsum(np.abs(full) ** 2), uniforms,
                                np.zeros(full.size, dtype=np.intp))
    assert np.array_equal(on_all[fock.sector_basis(n_rails, k)], on_sector)
    assert on_sector.sum() == on_all.sum() == 500


def _register(n_rails, emitting, elements):
    return Circuit(
        n_rails=n_rails, elements=elements,
        sources=[SepSource(r, 0.0, emits=r in emitting) for r in range(n_rails)],
        detectors=list(range(n_rails)),
        segments=[Segment(r, 3.0, 0) for r in range(n_rails)])


def _mesh(n_rails):
    elements = [WaveguideCoupler((r, r + 1), 0.14, 0.28)
                for r in range(n_rails - 1)]
    return elements + [PhaseShifter(r, 0.3 * r) for r in range(n_rails)]


@pytest.mark.parametrize("mode", ["off", "factor", "mc"])
def test_empty_register_samples_the_vacuum(mode):
    assert np.array_equal(fock.sector_basis(5, 0), [0])
    result = run_shots(_register(5, set(), _mesh(5)), 50,
                       dephasing=DephasingModel(30.0, mode), master_seed=3)
    assert result.counts == {0: 50}


@pytest.mark.parametrize("mode", ["off", "factor", "mc"])
def test_full_register_samples_the_filled_mask(mode):
    n_rails = 5
    assert np.array_equal(fock.sector_basis(n_rails, n_rails), [31])
    result = run_shots(_register(n_rails, set(range(n_rails)), _mesh(n_rails)),
                       50, dephasing=DephasingModel(30.0, mode), master_seed=3)
    assert result.counts == {31: 50}


@pytest.mark.parametrize("emits", [True, False])
@pytest.mark.parametrize("mode", ["off", "mc"])
def test_single_rail_register(mode, emits):
    circuit = _register(1, {0} if emits else set(), [PhaseShifter(0, 0.8)])
    result = run_shots(circuit, 40, dephasing=DephasingModel(30.0, mode),
                       master_seed=5)
    assert result.counts == {int(emits): 40}


def _wide_mesh(n_rails=20, occupied=(3, 12), n_elements=120, seed=11):
    rng = np.random.default_rng(seed)
    elements = []
    for _ in range(n_elements):
        if rng.random() < 0.4:
            elements.append(PhaseShifter(int(rng.integers(n_rails)),
                                         float(rng.uniform(0, 2 * math.pi))))
        else:
            a, b = (int(r) for r in rng.choice(n_rails, 2, replace=False))
            elements.append(WaveguideCoupler((a, b), float(rng.uniform(0, 0.28)),
                                             0.28))
    # equal wire on every rail before the first element and after the last:
    # the schedule stays coincident and the mc phases cannot move occupations
    segments = ([Segment(r, 2.0, 0) for r in range(n_rails)]
                + [Segment(r, 5.0, n_elements) for r in range(n_rails)])
    circuit = Circuit(
        n_rails=n_rails, elements=elements, segments=segments,
        sources=[SepSource(r, 0.0, emits=r in occupied) for r in range(n_rails)],
        detectors=list(range(n_rails)))
    return circuit, oracles.single_particle_unitary(elements, n_rails)


@pytest.mark.parametrize("mode", ["off", "mc"])
def test_wide_two_electron_mesh_matches_single_particle_occupations(mode):
    occupied = (3, 12)
    circuit, u = _wide_mesh(occupied=occupied)
    shots = 3000
    result = run_shots(circuit, shots, dephasing=DephasingModel(30.0, mode),
                       master_seed=19)
    for mask in result.counts:
        assert mask.bit_count() == 2
    for rail in range(circuit.n_rails):
        p = float(sum(abs(u[rail, j]) ** 2 for j in occupied))
        observed = sum(n for m, n in result.counts.items() if (m >> rail) & 1)
        sigma = math.sqrt(p * (1.0 - p) / shots)
        assert abs(observed / shots - p) <= 5 * sigma + 1e-12, rail


def test_sampling_allocates_no_full_space_array():
    circuit, _ = _wide_mesh()
    tracemalloc.start()
    try:
        run_shots(circuit, 3000, master_seed=19)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one int64 per mask of the 20-rail space alone would take 8 MiB
    assert peak < 8 << 20


@pytest.mark.parametrize("seed", range(40))
@pytest.mark.parametrize("space", ["sector", "full"])
def test_one_vector_evolves_like_a_batch_row_bit_for_bit(seed, space):
    # "sector": one random sector; "full": a random 2^n vector split into
    # every sector, whose evolved pieces, scattered back, must also match
    # the dense oracle within 1e-12
    rng = np.random.default_rng([91, seed])
    circuit = random_runnable_circuit(rng, max_rails=7, max_gates=25)
    n_rails = circuit.n_rails
    if space == "sector":
        ks = [int(rng.integers(0, n_rails + 1))]
        dim = fock.sector_basis(n_rails, ks[0]).size
    else:
        ks = range(n_rails + 1)
        dim = 1 << n_rails
    start = rng.standard_normal((dim, 3)) + 1j * rng.standard_normal((dim, 3))
    evolved = np.zeros_like(start)
    for k in ks:
        basis = fock.sector_basis(n_rails, k) if space == "full" else slice(None)
        vector = start[basis, 0].copy()
        column = start[basis, :1].copy()
        columns = start[basis].copy()
        for element in circuit.elements:
            apply_element_batch(vector, n_rails, element, fock.sector_block(n_rails, k))
            apply_element_batch(column, n_rails, element, fock.sector_block(n_rails, k))
            apply_element_batch(columns, n_rails, element, fock.sector_block(n_rails, k))
            assert np.array_equal(vector, column[:, 0])
        for i in range(3):
            single = start[basis, i].copy()
            for element in circuit.elements:
                apply_element_batch(single, n_rails, element, fock.sector_block(n_rails, k))
            assert np.array_equal(single, columns[:, i])
        evolved[basis] = columns
    if space == "full":
        total = oracles.circuit_unitary(circuit.elements, n_rails)
        assert np.max(np.abs(evolved - total @ start)) <= 1e-12 * np.max(
            np.linalg.norm(start, axis=0))


def test_mode_unitary_batch_takes_a_vector_or_a_batch():
    rng = np.random.default_rng(5)
    u = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
    for n_rails, k in [(6, k) for k in range(7)] + [(7, 2)]:
        dim = fock.sector_basis(n_rails, k).size
        start = rng.standard_normal((dim, 2)) + 1j * rng.standard_normal((dim, 2))
        for rails in ((0, 5), (4, 1), (2, 3)):
            vector = start[:, 1].copy()
            batch = start.copy()
            fock.mode_unitary_batch(vector, n_rails, rails, u, fock.sector_block(n_rails, k))
            fock.mode_unitary_batch(batch, n_rails, rails, u, fock.sector_block(n_rails, k))
            assert np.array_equal(vector, batch[:, 1])


@pytest.mark.parametrize("element", [
    PhaseShifter(3, 0.1),
    PhaseShifter(-1, 0.1),
    WaveguideCoupler((0, 5), 0.1, 0.2),
    WaveguideCoupler((-1, 0), 0.1, 0.2),
    CoulombCoupler((2, 4), 0.3),
    # a zero angle changes no amplitude, but its rail is still checked
    PhaseShifter(3, 0.0),
    PhaseShifter(-1, 0.0),
    CoulombCoupler((2, 4), 0.0),
], ids=["ps past last", "ps negative", "bs past last", "bs negative", "cc past last",
        "zero ps past last", "zero ps negative", "zero cc past last"])
# k None: every sector of the 3 rails
@pytest.mark.parametrize("k", [None, 1])
@pytest.mark.parametrize("shape", ["vector", "batch"])
def test_apply_element_batch_rejects_rails_out_of_range(element, k, shape):
    for n_electrons in range(4) if k is None else [k]:
        dim = fock.sector_basis(3, n_electrons).size
        amplitudes = np.zeros(dim if shape == "vector" else (dim, 2),
                              dtype=np.complex128)
        with pytest.raises(ValueError,
                           match=r"rail index -?\d+ out of range for 3 rails"):
            apply_element_batch(amplitudes, 3, element, fock.sector_block(3, n_electrons))


@pytest.mark.parametrize("lookup", [
    lambda rail: fock.rail_occupied_indices(3, rail, fock.sector_block(3, 1)),
    lambda rail: fock.pair_occupied_indices(3, 0, rail, fock.sector_block(3, 1)),
    lambda rail: fock._pair_plan(3, 0, rail, fock.sector_block(3, 1)),
], ids=["rail", "pair", "mode block"])
def test_index_helpers_reject_bool_rails_after_caching_the_integer(lookup):
    lookup(1)
    with pytest.raises(ValueError, match=r"rail index must be an integer, got True"):
        lookup(True)
