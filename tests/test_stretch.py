"""The stretch kernel, ``gates.apply_stretch``: a whole stretch of elements
in one call, its phase shifters held until a coupler needs them and its
couplers applied by ``fock.apply_mode_unitaries``, in partner form or by
position updates.

Both forms (the ``path`` fixture of ``conftest.py``) are checked against
the dense 2^n oracle restricted to each sector, across vector, column and
batch shapes, and against the element-by-element reference update
(``sectors.reference_element``) on the supports the ``mc`` average reads; a
long stretch is checked against itself split at random points.
"""

import math
import tracemalloc

import numpy as np
import pytest

import oracles
import sectors
from corpus import random_dephased_circuit, random_primitive, random_runnable_circuit
from flyqsim import fock, timing
from flyqsim.gates import (
    CompositeGate,
    CoulombCoupler,
    PhaseShifter,
    WaveguideCoupler,
    apply_stretch,
)
from flyqsim.netlist import Circuit
from flyqsim.timing import DephasingModel, SepSource


def _special_stretches(n_rails):
    """Reversed and non-adjacent couplers, stretches of only ps and cc, a
    trailing phase run and an empty stretch."""
    last = n_rails - 1
    stretches = [
        [],
        [PhaseShifter(0, 0.4), PhaseShifter(last, -1.1), PhaseShifter(0, 2.0)],
        [WaveguideCoupler((last, 0), 0.11, 0.28),
         WaveguideCoupler((0, last), 0.2, 0.3)],
        [WaveguideCoupler((0, last), 0.1, 0.28), PhaseShifter(1, 0.3),
         PhaseShifter(1, 0.5), PhaseShifter(last, 1.2)],
    ]
    if n_rails >= 3:
        stretches += [
            [CoulombCoupler((0, 2), 0.7), PhaseShifter(1, 0.2),
             CoulombCoupler((2, 0), -0.3)],
            [PhaseShifter(1, 0.9), CoulombCoupler((0, 2), 0.6),
             WaveguideCoupler((2, 0), 0.17, 0.28), CoulombCoupler((1, 2), 1.3),
             WaveguideCoupler((0, 1), 0.05, 0.28), PhaseShifter(2, -0.4)],
        ]
    return stretches


@pytest.mark.parametrize("seed", range(30))
def test_stretch_matches_the_dense_oracle_in_every_sector(seed, path):
    rng = np.random.default_rng([19, seed])
    circuit = random_runnable_circuit(rng, max_rails=6, max_gates=30)
    n_rails = circuit.n_rails
    for elements in [list(circuit.elements)] + _special_stretches(n_rails):
        total = (oracles.circuit_unitary(elements, n_rails) if elements
                 else np.eye(1 << n_rails))
        for k in range(n_rails + 1):
            dim = fock.sector_basis(n_rails, k).size
            start = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            state = start.copy()
            apply_stretch(state, n_rails, elements, k)
            expected = sectors.restrict(total, n_rails, k) @ start
            assert np.max(np.abs(state - expected)) <= 1e-12 * np.linalg.norm(start)


@pytest.mark.parametrize("seed", range(4))
def test_a_long_stretch_equals_its_pieces(seed):
    # 6 rails with 3 electrons: 20 masks, so every piece goes in partner
    # form.  Each cut moves the couplers that the held phase shifters fold
    # into
    rng = np.random.default_rng([23, seed])
    n_rails, k = 6, 3
    elements = [random_primitive(rng, n_rails) for _ in range(1500)]
    dim = fock.sector_basis(n_rails, k).size
    assert dim <= fock._MAX_ROW_MASKS
    start = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    start /= np.linalg.norm(start)
    whole = start.copy()
    apply_stretch(whole, n_rails, elements, k)
    cuts = rng.choice(len(elements) + 1, size=7, replace=False).tolist()
    # and three short pieces
    first = int(rng.integers(len(elements) - 12))
    cuts = sorted(set(cuts + [first + 3, first + 6, first + 12]))
    pieces = start.copy()
    for begin, end in zip([0] + cuts, cuts + [len(elements)]):
        apply_stretch(pieces, n_rails, elements[begin:end], k)
    assert np.max(np.abs(whole - pieces)) <= 1e-13


@pytest.mark.parametrize("seed", range(20))
def test_vector_column_and_batch_evolve_alike_bit_for_bit(seed, path):
    rng = np.random.default_rng([29, seed])
    circuit = random_runnable_circuit(rng, max_rails=7, max_gates=40)
    n_rails = circuit.n_rails
    for elements in [list(circuit.elements)] + _special_stretches(n_rails):
        for k in range(n_rails + 1):
            dim = fock.sector_basis(n_rails, k).size
            start = rng.standard_normal((dim, 3)) + 1j * rng.standard_normal((dim, 3))
            vector, column, batch = start[:, 0].copy(), start[:, :1].copy(), start.copy()
            for state in (vector, column, batch):
                apply_stretch(state, n_rails, elements, k)
            assert np.array_equal(vector, column[:, 0])
            assert np.array_equal(vector, batch[:, 0])
            for i in (1, 2):
                single = start[:, i].copy()
                apply_stretch(single, n_rails, elements, k)
                assert np.array_equal(single, batch[:, i])


@pytest.mark.parametrize("bad", [
    PhaseShifter(4, 0.1),
    PhaseShifter(-1, 0.1),
    CoulombCoupler((0, 4), 0.2),
    WaveguideCoupler((4, 1), 0.1, 0.28),
    WaveguideCoupler((-1, 2), 0.1, 0.28),
], ids=["ps past last", "ps negative", "cc past last", "bs reversed past last",
        "bs negative"])
@pytest.mark.parametrize("where", ["first", "middle", "trailing"])
def test_stretch_rejects_rails_out_of_range(bad, where, path):
    good = [PhaseShifter(0, 0.3), WaveguideCoupler((0, 2), 0.1, 0.28),
            CoulombCoupler((1, 3), 0.5)]
    elements = {"first": [bad] + good, "middle": good[:2] + [bad] + good[2:],
                "trailing": good + [bad]}[where]
    for k in range(5):
        state = np.ones(fock.sector_basis(4, k).size, dtype=complex)
        with pytest.raises(ValueError,
                           match=r"rail index -?\d+ out of range for 4 rails"):
            apply_stretch(state, 4, elements, k)


def test_stretch_rejects_a_macro(path):
    with pytest.raises(TypeError, match="not a gate element"):
        apply_stretch(np.ones(3, dtype=complex), 3,
                      [PhaseShifter(0, 0.1), CompositeGate("hadamard", (0, 1))], 1)


def test_both_forms_keep_structural_zeros_exact(path):
    # one electron loaded on rail 0 of 8: couplers among rails 0 to 3 can
    # never reach rails 4 to 7, whose masks must stay exactly zero, as they
    # do under the element-by-element reference
    rng = np.random.default_rng(31)
    elements = []
    for _ in range(60):
        a, b = (int(r) for r in rng.choice(4, 2, replace=False))
        elements += [PhaseShifter(int(rng.integers(8)), float(rng.uniform(0, 6))),
                     WaveguideCoupler((a, b), float(rng.uniform(0, 0.28)), 0.28),
                     CoulombCoupler((int(rng.integers(4)), 5), 0.4)]
    for occupied in ({0}, {0, 6}, {0, 4, 6}):
        k, state = sectors.loaded(8, occupied)
        reference = state.copy()
        apply_stretch(state, 8, elements, k)
        sectors.reference_stretch(reference, 8, elements, k)
        assert np.array_equal(np.flatnonzero(state), np.flatnonzero(reference))
        assert np.count_nonzero(state) < state.size
        assert np.max(np.abs(state - reference)) <= 1e-12


def _mc_trace(circuit, kernel, monkeypatch):
    """Per wire position of an ``mc`` run: the support ``_dephase`` reads
    and whether it rebuilt the state; ``kernel`` evolves each stretch."""
    seen = []
    dephase = timing._dephase

    def recording(state, dense, group, sector, l_phi):
        weight = (state.diagonal().real if dense else
                  np.sum(np.abs(state.reshape(sector.size, -1)) ** 2, axis=1))
        out, out_dense = dephase(state, dense, group, sector, l_phi)
        seen.append((np.flatnonzero(weight).tolist(), out is not state))
        return out, out_dense

    with monkeypatch.context() as patch:
        patch.setattr(timing, "_dephase", recording)
        patch.setattr(timing, "apply_stretch", kernel)
        probabilities = timing.outcome_probabilities(
            circuit, DephasingModel(10.0, "mc"))[1]
    return seen, probabilities


@pytest.mark.parametrize("seed", range(40))
def test_mc_supports_and_rebuilds_match_the_reference(seed, path, monkeypatch):
    rng = np.random.default_rng([37, seed])
    circuit = random_dephased_circuit(rng, max_rails=7, max_gates=25)
    kernel, kernel_p = _mc_trace(circuit, apply_stretch, monkeypatch)
    reference, reference_p = _mc_trace(circuit, sectors.reference_stretch,
                                       monkeypatch)
    assert kernel == reference
    assert np.max(np.abs(kernel_p - reference_p)) <= 1e-12


def test_pair_plans_hold_no_more_bytes_than_the_index_blocks_they_replaced():
    # the replaced blocks held int64 positions of the lo-only masks, of
    # their partners and of the doubly occupied masks, and float64 signs
    for n_rails, k in [(8, 4), (10, 5), (18, 9), (63, 3), (40, 2), (6, 1)]:
        hops = math.comb(n_rails - 2, k - 1)
        both = math.comb(n_rails - 2, k - 2) if k >= 2 else 0
        for lo, hi in [(0, 1), (0, n_rails - 1), (n_rails // 2, n_rails - 2)]:
            positions, signs = fock._pair_plan(n_rails, lo, hi, k)
            assert (signs.size, positions.size) == (hops, 2 * hops + both)
            assert positions.nbytes + signs.nbytes <= 24 * hops + 8 * both


@pytest.mark.parametrize("mode", ["off", "factor"])
def test_a_large_sector_run_holds_few_sectors_beside_its_caches(mode):
    # 8 electrons on 16 rails: 12870 masks, above the partner form's bound,
    # so each coupler touches only the masks with an electron on its pair.
    # The run holds the state, the probabilities and one coupler's gathered
    # blocks, 2.4 sectors' worth; partner-form rows over the whole sector
    # for each coupler would hold about 6
    n_rails = 16
    rng = np.random.default_rng(41)
    elements = [random_primitive(rng, n_rails) for _ in range(90)]
    elements.append(CoulombCoupler((0, 15), 0.3))
    circuit = Circuit(n_rails=n_rails, elements=elements,
                      sources=[SepSource(r, 0.0, emits=r % 2 == 0)
                               for r in range(n_rails)])
    dephasing = DephasingModel(30.0, mode)
    dim = fock.sector_basis(n_rails, 8).size
    assert dim > fock._MAX_ROW_MASKS
    expected = timing.outcome_probabilities(circuit, dephasing)[1]  # warm caches
    rows = fock._partner_row.cache_info().currsize
    tracemalloc.start()
    try:
        probabilities = timing.outcome_probabilities(circuit, dephasing)[1]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(probabilities, expected)
    assert peak <= 3 * 16 * dim
    assert fock._partner_row.cache_info().currsize == rows
