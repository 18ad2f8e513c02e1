import dataclasses
import io
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from flyqsim import cli, fock, timing
from flyqsim.budget import analyze
from flyqsim.fock import CapacityError
from flyqsim.gates import (
    CompositeGate,
    CoulombCoupler,
    PhaseShifter,
    WaveguideCoupler,
    apply_element_batch,
)
from flyqsim.netlist import Circuit, Segment, parse_circuit, serialize
from flyqsim.timing import (
    CoincidenceError,
    ConfigError,
    DephasingModel,
    PropagationModel,
    SepSource,
    arrival_times,
    check_coincidence,
    run_shots,
)

import corpus
import oracles
import sectors

BALANCED = dict(coupling_length=0.14, transfer_length=0.28)


def single_rail_circuit(segment_um=1.0, delay_ps=0.0):
    return Circuit(
        n_rails=1,
        elements=[PhaseShifter(0, 0.4)],
        segments=[Segment(0, segment_um, 0)],
        sources=[SepSource(0, delay_ps)],
        detectors=[0],
    )


def cc_pair_circuit(len_a=2.0, len_b=2.0, delay_a=0.0, delay_b=0.0):
    return Circuit(
        n_rails=2,
        elements=[CoulombCoupler((0, 1), 0.5)],
        segments=[Segment(0, len_a, 0), Segment(1, len_b, 0)],
        sources=[SepSource(0, delay_a), SepSource(1, delay_b)],
        detectors=[0, 1],
    )


def mach_zehnder(arm_um=0.0, internal_phase=0.0):
    elements = [WaveguideCoupler((0, 1), **BALANCED)]
    if internal_phase:
        elements.append(PhaseShifter(0, internal_phase))
    elements.append(WaveguideCoupler((0, 1), **BALANCED))
    segments = []
    if arm_um:
        pos = len(elements) - 1
        segments = [Segment(0, arm_um, pos), Segment(1, arm_um, pos)]
    return Circuit(
        n_rails=2,
        elements=elements,
        segments=segments,
        sources=[SepSource(0, 0.0), SepSource(1, 0.0, emits=False)],
        detectors=[0, 1],
    )


# --- arrival times -------------------------------------------------------


def test_arrival_time_is_length_over_velocity():
    table = arrival_times(single_rail_circuit(1.0), PropagationModel(0.1, 1.0))
    assert table[0].times[0] == pytest.approx(10.0)


def test_arrival_symmetric_paths_coincide():
    table = arrival_times(cc_pair_circuit(), PropagationModel(0.1, 1.0))
    assert table[0].times[0] == table[0].times[1]


def test_arrival_delay_compensates_length():
    # 1 um extra on rail 0 compensated by 10 ps head start
    circuit = cc_pair_circuit(len_a=3.0, len_b=2.0, delay_b=10.0)
    table = arrival_times(circuit, PropagationModel(0.1, 1.0))
    assert table[0].times[0] == pytest.approx(table[0].times[1])


def test_arrival_missing_source():
    circuit = dataclasses.replace(cc_pair_circuit(), sources=[SepSource(0, 0.0)])
    with pytest.raises(ConfigError):
        arrival_times(circuit, PropagationModel())


def test_arrival_past_the_float_range_names_the_first_element():
    # 1 um and 2 um of wire over 1e-310 um/ps overflow to inf on both rails
    with pytest.raises(ConfigError, match=r"^element 0 \(cc\) arrival time "
                       r"on q0, q1 is not finite"):
        arrival_times(cc_pair_circuit(1.0, 2.0), PropagationModel(1e-310, 1.0))
    # a rail without wire arrives at its delay; only the other one is named
    circuit = dataclasses.replace(
        cc_pair_circuit(1.0, 0.0), elements=[PhaseShifter(1, 0.5),
                                              CoulombCoupler((0, 1), 0.5)])
    with pytest.raises(ConfigError, match=r"^element 1 \(cc\) arrival time "
                       r"on q0 is not finite"):
        arrival_times(circuit, PropagationModel(1e-310, 1.0))
    # large but finite arrivals are still computed
    model = PropagationModel(1e-300, 1.0)
    table = arrival_times(cc_pair_circuit(1.0, 2.0), model)
    assert [a.times for a in table] == [
        row.times for row in oracles.arrival_rows(cc_pair_circuit(1.0, 2.0), model)]


# --- coincidence checking -------------------------------------------------


def test_coincidence_clean_circuit():
    table = arrival_times(cc_pair_circuit(), PropagationModel(0.1, 1.0))
    assert check_coincidence(table, 1.0) == []


def test_coincidence_detects_uncompensated_mismatch():
    circuit = cc_pair_circuit(len_a=3.0, len_b=2.0)
    table = arrival_times(circuit, PropagationModel(0.1, 5.0))
    violations = check_coincidence(table, 5.0)
    assert len(violations) == 1
    violation = violations[0]
    assert violation.spread == pytest.approx(10.0)
    assert violation.keyword == "cc"
    assert violation.element_index == 0
    assert "cc q0 q1" in str(violation)


def test_coincidence_fixed_by_delay():
    circuit = cc_pair_circuit(len_a=3.0, len_b=2.0, delay_b=10.0)
    table = arrival_times(circuit, PropagationModel(0.1, 5.0))
    assert check_coincidence(table, 5.0) == []


def test_coincidence_time_translation_invariance():
    skew = cc_pair_circuit(len_a=3.0, len_b=2.0)
    model = PropagationModel(0.1, 5.0)
    baseline = check_coincidence(arrival_times(skew, model), 5.0)
    shifted = cc_pair_circuit(len_a=3.0, len_b=2.0, delay_a=25.0, delay_b=25.0)
    moved = check_coincidence(arrival_times(shifted, model), 5.0)
    assert [v.spread for v in moved] == [v.spread for v in baseline]


def test_single_rail_elements_never_violate():
    table = arrival_times(single_rail_circuit(100.0), PropagationModel(0.1, 1.0))
    assert check_coincidence(table, 1.0) == []


def test_coincidence_window_follows_the_model_number_rule():
    # a string window once raised TypeError from the comparison with 0
    table = arrival_times(cc_pair_circuit(len_a=3.0, len_b=2.0),
                          PropagationModel(0.1, 5.0))
    for window in ("5", np.float32(5.0)):
        assert [v.spread for v in check_coincidence(table, window)] == [
            pytest.approx(10.0)]
    assert check_coincidence(table, "11") == []
    for window in ("fast", None):
        with pytest.raises(ValueError, match="window must be a number"):
            check_coincidence(table, window)
    for window in (0, "0", -1.0, math.nan):
        with pytest.raises(ValueError, match="window must be > 0"):
            check_coincidence(table, window)


# --- shot running -----------------------------------------------------------


def test_run_shots_encoded_zero_is_deterministic():
    circuit = Circuit(
        n_rails=2,
        sources=[SepSource(0, 0.0), SepSource(1, 0.0, emits=False)],
        detectors=[0, 1],
        registers=[("a", (0, 1))],
    )
    result = run_shots(circuit, 500, master_seed=9)
    assert result.counts == {0b01: 500}
    assert result.logical_counts == {"0": 500}
    assert result.leak_count == 0


def test_run_shots_mach_zehnder_deterministic_port():
    # two balanced couplers: the electron always crosses to the other rail
    result = run_shots(mach_zehnder(), 400, master_seed=3)
    assert result.counts == {0b10: 400}


def test_run_shots_histogram_matches_state_probabilities():
    # balanced splitter: binomial check at 3 sigma for both outcomes
    circuit = Circuit(
        n_rails=2,
        elements=[WaveguideCoupler((0, 1), **BALANCED)],
        sources=[SepSource(0, 0.0), SepSource(1, 0.0, emits=False)],
        detectors=[0, 1],
    )
    shots = 20_000
    result = run_shots(circuit, shots, master_seed=17)
    sigma = math.sqrt(0.25 / shots)
    assert result.counts[0b01] / shots == pytest.approx(0.5, abs=3 * sigma)
    assert result.counts[0b10] / shots == pytest.approx(0.5, abs=3 * sigma)


def test_run_shots_reproducible():
    circuit = mach_zehnder(internal_phase=0.7)
    a = run_shots(circuit, 2000, master_seed=42)
    b = run_shots(circuit, 2000, master_seed=42)
    assert a.counts == b.counts
    c = run_shots(circuit, 2000, master_seed=43)
    assert c.counts != a.counts


@pytest.mark.parametrize("mode", ["off", "factor", "mc"])
@pytest.mark.parametrize("seed", range(4))
def test_histogram_holds_ascending_masks_and_their_counts(monkeypatch, mode, seed):
    # the report writes masks and mask_counts as they are, so they must be
    # ascending int64 masks and positive int64 counts; a corpus circuit, its
    # Coulomb-free form (the free path in off and factor mode) and a
    # dephased one cover both paths
    free_calls = []
    free = timing._free_probabilities
    monkeypatch.setattr(timing, "_free_probabilities",
                        lambda *args: free_calls.append(args) or free(*args))
    rng = np.random.default_rng(seed)
    runnable = corpus.random_runnable_circuit(rng)
    coulomb_free = dataclasses.replace(runnable, elements=[
        element for element in runnable.elements
        if not isinstance(element, CoulombCoupler)])
    dephased = corpus.random_dephased_circuit(rng)
    for circuit in (runnable, coulomb_free, dephased):
        result = run_shots(circuit, 700, dephasing=DephasingModel(30.0, mode),
                           master_seed=seed, allow_desync=True)
        masks, counts = result.masks, result.mask_counts
        assert masks.dtype == np.int64 and masks.ndim == 1
        assert counts.dtype == np.int64 and counts.shape == masks.shape
        assert np.all(np.diff(masks) > 0)
        assert np.all(counts > 0)
        assert counts.sum() == result.n_shots == 700
        assert result.counts == dict(zip(masks.tolist(), counts.tolist()))
        assert all(type(key) is int and type(value) is int
                   for key, value in result.counts.items())
    assert bool(free_calls) == (mode != "mc")


def test_histograms_compare_by_their_outcomes():
    circuit = mach_zehnder(arm_um=6.0, internal_phase=0.7)
    a = run_shots(circuit, 300, master_seed=4)
    assert a == run_shots(circuit, 300, master_seed=4)
    assert a != run_shots(circuit, 300, master_seed=5)
    assert a != run_shots(circuit, 301, master_seed=4)
    assert a != a.counts


def test_run_shots_refuses_desynchronized_circuit():
    circuit = cc_pair_circuit(len_a=3.0, len_b=2.0)
    with pytest.raises(CoincidenceError) as err:
        run_shots(circuit, 10, master_seed=0)
    assert "cc q0 q1" in str(err.value)
    result = run_shots(circuit, 10, master_seed=0, allow_desync=True)
    assert result.n_shots == 10
    assert result.violations == err.value.violations
    assert run_shots(cc_pair_circuit(), 10).violations == []


def test_run_shots_samples_a_macro_as_its_expansion():
    circuit = Circuit(
        n_rails=2,
        elements=[CompositeGate("hadamard", (0, 1))],
        sources=[SepSource(0, 0.0), SepSource(1, 0.0, emits=False)],
    )
    result = run_shots(circuit, 2000, master_seed=3)
    assert result == run_shots(circuit.expanded, 2000, master_seed=3)
    # the Hadamard splits the electron evenly over the pair
    assert sorted(result.counts) == [0b01, 0b10]
    assert abs(result.counts[0b01] - 1000) < 150


def test_factor_mode_matches_budget_report(tmp_path):
    circuit = mach_zehnder(arm_um=12.0)
    dephasing = DephasingModel(l_phi=30.0, mode="factor")
    result = run_shots(circuit, 50, dephasing=dephasing, master_seed=1)
    # ideal sampling: the port is still deterministic in factor mode
    assert result.counts == {0b10: 50}
    # a factor-mode run reports the budget's factor as its mean coherence
    path = tmp_path / "mz.fq"
    path.write_text(serialize(circuit))
    out = io.StringIO()
    config = cli.RunConfig(str(path), shots=50, seed=1, dephasing_mode="factor",
                           l_phi=30.0, output_format="machine")
    assert cli.run(config, out=out) == cli.EXIT_OK
    lines = out.getvalue().splitlines()
    values = dict(line.split("=", 1) for line in lines if "=" in line)
    report = analyze(circuit, l_phi=30.0)
    assert float(values["mean_coherence"]) == pytest.approx(
        report.coherence_factor, abs=1e-12)
    assert values["mean_coherence"] == values["budget_coherence"]
    assert "count 01 50" in lines


def test_factor_mode_coherence_value():
    circuit = mach_zehnder(arm_um=30.0, internal_phase=0.7)
    # max rail path: 30 um arm + two 0.14 um couplers
    expected = math.exp(-30.28 / 30.0)
    assert analyze(circuit, l_phi=30.0).coherence_factor == pytest.approx(
        expected, abs=1e-12)
    # the factor is the budget's: factor mode samples exactly as off
    dephasing = DephasingModel(l_phi=30.0, mode="deterministic-factor")
    factor = run_shots(circuit, 200, dephasing=dephasing, master_seed=0)
    assert len(factor.counts) == 2
    assert factor.counts == run_shots(circuit, 200, master_seed=0).counts


def test_monte_carlo_visibility_quick():
    # arms of one coherence length: visibility e^-1, loose 4-sigma gate here
    circuit = mach_zehnder(arm_um=30.0)
    shots = 20_000
    result = run_shots(circuit, shots,
                       dephasing=DephasingModel(30.0, "mc"), master_seed=5)
    crossed = result.counts.get(0b10, 0) / shots
    visibility = 2 * crossed - 1
    p = (1 + math.exp(-1)) / 2
    sigma_v = 2 * math.sqrt(p * (1 - p) / shots)
    assert visibility == pytest.approx(math.exp(-1), abs=4 * sigma_v)


def test_monte_carlo_preserves_occupation_statistics():
    # dephasing is phase-only: a single-coupler splitter keeps 50/50 counts
    circuit = Circuit(
        n_rails=2,
        elements=[WaveguideCoupler((0, 1), **BALANCED)],
        segments=[Segment(0, 45.0, 1), Segment(1, 45.0, 1)],
        sources=[SepSource(0, 0.0), SepSource(1, 0.0, emits=False)],
        detectors=[0, 1],
    )
    shots = 20_000
    result = run_shots(circuit, shots,
                       dephasing=DephasingModel(30.0, "mc"), master_seed=11)
    sigma = math.sqrt(0.25 / shots)
    assert result.counts[0b01] / shots == pytest.approx(0.5, abs=4 * sigma)
    assert result.counts.get(0b00, 0) == 0
    assert result.counts.get(0b11, 0) == 0


def test_logical_counts_with_register():
    circuit = dataclasses.replace(mach_zehnder(), registers=[("a", (0, 1))])
    result = run_shots(circuit, 300, master_seed=8)
    assert result.logical_counts == {"1": 300}
    assert result.leak_count == 0


def shot_masks(circuit, n_shots, mode, seed):
    """Shot i's mask, read as the one count run i+1 adds to run i."""
    dephasing = DephasingModel(30.0, mode)
    masks = []
    previous = Counter()
    for n in range(1, n_shots + 1):
        counts = Counter(run_shots(circuit, n, dephasing=dephasing,
                                   master_seed=seed).counts)
        added = counts - previous
        assert not previous - counts, f"shot {n - 1} removed a count"
        assert sum(added.values()) == 1, f"shot {n - 1} added {dict(added)}"
        masks.extend(added)
        previous = counts
    return masks


def test_off_mode_follows_stream_contract():
    # one Philox stream per run; shot i reads uniform i for its readout
    circuit = mach_zehnder(internal_phase=0.7)
    k, state = sectors.loaded(2, {0})
    for element in circuit.elements:
        apply_element_batch(state, 2, element, fock.sector_block(2, k))
    # readout over all four masks: the scalar loop never lands on the
    # zero-probability masks outside the sector
    probabilities = np.abs(sectors.scatter(state, 2, k)) ** 2
    uniforms = np.random.default_rng(np.random.Philox(4)).random(60)
    expected = oracles.oracle_masks(probabilities, uniforms)
    assert shot_masks(circuit, 60, "off", seed=4) == expected


def reference_mc_masks(circuit, n_shots, seed, l_phi=30.0):
    """Per-shot trajectories over the full 2^n space.

    Each shot draws its own normal for every segment, evolves its own state
    through the oracle's dense element matrices and reads out from that
    state's probabilities.
    """
    rng = np.random.default_rng(seed)
    n, dim = circuit.n_rails, 1 << circuit.n_rails
    states = np.zeros((dim, n_shots), dtype=complex)
    states[sum(1 << src.rail for src in circuit.sources if src.emits)] = 1.0
    masks = np.arange(dim)
    for position in range(len(circuit.elements) + 1):
        for seg in circuit.segments:
            if seg.position == position:
                phases = math.sqrt(seg.length / l_phi) * rng.standard_normal(n_shots)
                states[(masks >> seg.rail) & 1 == 1] *= np.exp(1j * phases)
        if position < len(circuit.elements):
            states = oracles.dense_element(circuit.elements[position], n) @ states
    uniforms = rng.random(n_shots)
    return [oracles.oracle_masks(np.abs(states[:, shot]) ** 2, [u])[0]
            for shot, u in enumerate(uniforms)]


def branching_circuit():
    """Wire the mc path may share across shots, and wire it may not.

    Leading wire meets a Fock state; the wire before element 1 lies on rail
    2, which the phase shifter leaves definite; the wire before element 2
    lies on rail 0, superposed by the coupler; then more wire, a Coulomb
    coupler and two trailing segments: nine segments in all.
    """
    return Circuit(
        n_rails=3,
        elements=[PhaseShifter(2, 0.3), WaveguideCoupler((0, 1), **BALANCED),
                  PhaseShifter(0, 0.7), WaveguideCoupler((0, 1), **BALANCED),
                  CoulombCoupler((0, 2), 0.4)],
        segments=[Segment(0, 3.0, 0), Segment(1, 3.0, 0), Segment(2, 3.0, 0),
                  Segment(2, 1.5, 1), Segment(0, 4.0, 2), Segment(1, 4.0, 3),
                  Segment(2, 2.5, 3), Segment(1, 2.0, 5), Segment(0, 1.0, 5)],
        sources=[SepSource(0, 0.0), SepSource(1, 0.0, emits=False),
                 SepSource(2, 0.0)],
        detectors=[0, 1, 2],
    )


@pytest.mark.parametrize("seed", [4, 9])
@pytest.mark.parametrize("circuit", [
    branching_circuit(),
    # leading wire only: every segment meets a definite rail
    dataclasses.replace(mach_zehnder(internal_phase=0.7),
                        segments=[Segment(0, 5.0, 0), Segment(1, 5.0, 0)]),
    # arms after the first coupler: superposed from the first segment on
    mach_zehnder(arm_um=6.0, internal_phase=0.7),
], ids=["branching", "leading wire only", "arms"])
def test_mc_mode_follows_stream_contract(circuit, seed):
    # as in off mode, shot i reads uniform i, here against the CDF of the
    # noise-averaged probabilities
    uniforms = np.random.default_rng(np.random.Philox(seed)).random(40)
    expected = oracles.oracle_masks(
        oracles.dense_rho_probabilities(circuit, 30.0), uniforms)
    masks = shot_masks(circuit, 40, "mc", seed=seed)
    assert masks == expected
    assert len(set(masks)) > 1


@pytest.mark.parametrize("seed", [4, 9, 23])
def test_mc_histogram_matches_per_shot_trajectories(seed):
    # short coherence length: the dephasing moves every outcome's probability
    circuit = branching_circuit()
    shots = 20_000
    exact = run_shots(circuit, shots, dephasing=DephasingModel(5.0, "mc"),
                      master_seed=seed).counts
    trajectories = Counter(reference_mc_masks(circuit, shots, seed, l_phi=5.0))
    assert len(trajectories) > 1
    for mask in set(exact) | set(trajectories):
        p_exact = exact.get(mask, 0) / shots
        p_traj = trajectories[mask] / shots
        pooled = (p_exact + p_traj) / 2
        sigma = math.sqrt(pooled * (1 - pooled) * 2 / shots)
        assert abs(p_exact - p_traj) <= 5 * sigma, mask


MC = DephasingModel(10.0, "mc")


def full_space(circuit, dephasing=MC):
    sector, probabilities = timing.outcome_probabilities(circuit, dephasing)
    full = np.zeros(1 << circuit.n_rails)
    full[sector] = probabilities
    return full


@pytest.mark.parametrize("dense_support", [timing._DENSE_SUPPORT, 0],
                         ids=["factored", "dense"])
def test_mc_probabilities_match_dense_rho_oracle(monkeypatch, dense_support):
    monkeypatch.setattr(timing, "_DENSE_SUPPORT", dense_support)
    rng = np.random.default_rng(20261018)
    for _ in range(40):
        circuit = corpus.random_dephased_circuit(rng, max_rails=6)
        expected = oracles.dense_rho_probabilities(circuit, MC.l_phi)
        assert np.max(np.abs(full_space(circuit) - expected)) <= 1e-12


def test_mc_probabilities_match_gauss_hermite_quadrature():
    rng = np.random.default_rng(1018)
    for _ in range(8):
        circuit = corpus.random_dephased_circuit(rng, max_rails=4, max_segments=3)
        expected = oracles.gauss_hermite_probabilities(circuit, MC.l_phi)
        assert np.max(np.abs(full_space(circuit) - expected)) <= 1e-12


def factored_and_dense_circuit():
    """10 rails, 5 electrons: the 252-mask sector, beyond the dense oracles."""
    pairs = [WaveguideCoupler((r, r + 1), **BALANCED) for r in range(0, 10, 2)]
    links = [WaveguideCoupler((r, r + 1), 0.09, 0.28) for r in range(1, 9, 2)]
    coulomb = [CoulombCoupler((r, (r + 3) % 10), 0.9) for r in range(0, 10, 2)]
    elements = pairs + links + coulomb + pairs + links + pairs
    segments = [Segment(r, 1.0 + r, position)
                for position in (9, 19, 23) for r in range(10)]
    return Circuit(n_rails=10, elements=elements, segments=segments,
                   sources=[SepSource(r, 0.0, emits=r % 2 == 0)
                            for r in range(10)])


def test_factored_and_dense_forms_agree(monkeypatch):
    circuit = factored_and_dense_circuit()
    factored = full_space(circuit)
    monkeypatch.setattr(timing, "_DENSE_SUPPORT", 0)
    dense = full_space(circuit)
    assert np.max(np.abs(factored - dense)) <= 1e-12
    # the wire matters: the average differs from the ideal run
    ideal = full_space(circuit, DephasingModel(10.0, "off"))
    assert np.max(np.abs(factored - ideal)) > 1e-3


def wide_superposed_circuit():
    """18 rails, 9 dual-rail qubits in superposition, then wire on every rail:
    a support of 2^9 masks.  A coupler between each two neighbouring
    registers, after the qubits' second layer, joins all rails in one group,
    so the block is the 48620-mask sector."""
    elements = [WaveguideCoupler((2 * k, 2 * k + 1), **BALANCED) for k in range(9)]
    links = [WaveguideCoupler((2 * k + 1, 2 * k + 2), 0.07) for k in range(8)]
    return Circuit(n_rails=18, elements=elements + elements + links,
                   segments=[Segment(r, 3.0, 9) for r in range(18)],
                   sources=[SepSource(r, 0.0, emits=r % 2 == 0) for r in range(18)])


def test_mc_refuses_an_array_above_the_cap():
    circuit = wide_superposed_circuit()
    with pytest.raises(CapacityError,
                       match=r"48620 x 48620 array, above the cap of 2\^24 "
                             r"amplitudes \(256 MiB\); use factor mode"):
        run_shots(circuit, 10, dephasing=DephasingModel(30.0, "mc"))
    factor = run_shots(circuit, 10, dephasing=DephasingModel(30.0, "factor"))
    assert factor.n_shots == 10


def test_dense_mc_memory_is_bounded_per_run(monkeypatch):
    # the 252-mask circuit in the dense form: a budget either refuses the
    # run or bounds everything it holds at once, not each array
    circuit = factored_and_dense_circuit()
    monkeypatch.setattr(timing, "_DENSE_SUPPORT", 0)
    admitted = []
    for copies in (1, 2, 3):
        budget = copies * 252 * 252
        monkeypatch.setattr(fock, "MAX_AMPLITUDES", budget)
        tracemalloc.start()
        try:
            timing.outcome_probabilities(circuit, MC)
            peak = tracemalloc.get_traced_memory()[1]
        except CapacityError as err:
            assert "holds 3 arrays of that size at once" in str(err)
            continue
        finally:
            tracemalloc.stop()
        assert peak <= 16 * budget, copies
        admitted.append(copies)
    assert admitted == [3]


def test_factored_mc_memory_is_bounded_per_run(monkeypatch):
    # the 252-mask circuit in the factored form: the smallest cap that admits
    # the run bounds everything it holds at once, rebuilds and element
    # temporaries included
    circuit = factored_and_dense_circuit()
    held = []
    check = fock.check_capacity

    def recording(amount, needs, advice=""):
        if "monte-carlo" in needs:  # the mc forms' checks, not the kernel's rows
            held.append(amount)
        check(amount, needs, advice)

    # the sector is built before recording, so only the mc forms are counted
    expected = timing.outcome_probabilities(circuit, MC)[1]
    monkeypatch.setattr(fock, "check_capacity", recording)
    assert np.array_equal(timing.outcome_probabilities(circuit, MC)[1], expected)
    assert len(held) == 3  # one check per rebuild, no dense switch
    need = max(held)
    for budget in (need - 1, need):
        monkeypatch.setattr(fock, "MAX_AMPLITUDES", budget)
        tracemalloc.start()
        try:
            probabilities = timing.outcome_probabilities(circuit, MC)[1]
            peak = tracemalloc.get_traced_memory()[1]
        except CapacityError as err:
            assert budget == need - 1
            assert "the previous B and the eigen-decomposition" in str(err)
            continue
        finally:
            tracemalloc.stop()
        assert budget == need
        assert peak <= 16 * budget
        assert np.array_equal(probabilities, expected)


@pytest.mark.parametrize("mode", ["factor", "mc"])
def test_each_extra_shot_adds_one_count(mode):
    # shot i owns a fixed block of the stream, so a longer run only appends
    circuit = mach_zehnder(arm_um=6.0, internal_phase=0.7)
    masks = shot_masks(circuit, 40, mode, seed=4)
    assert len(set(masks)) == 2


def test_sector_wider_than_a_chunk_over_several_chunks():
    # C(16, 8) = 12870 masks against chunks of at most 8192 draws: each
    # chunk places its draws in the cumulative sum and adds only the
    # positions drawn
    n_rails = 16
    elements = []
    for a, b in ((7, 8), (6, 9), (5, 8), (7, 10), (4, 9), (6, 11)):
        elements += [WaveguideCoupler((a, b), 0.05 + 0.01 * a, 0.28),
                     PhaseShifter(b, 0.3 * a)]
    # a chain of weak couplers joins every rail, so the block is the sector
    elements += [WaveguideCoupler((r, r + 1), 0.01, 0.28) for r in range(n_rails - 1)]
    circuit = Circuit(n_rails=n_rails, elements=elements,
                      sources=[SepSource(r, 0.0, emits=r < 8)
                               for r in range(n_rails)])
    sector, probabilities = timing.outcome_probabilities(circuit)
    assert sector.size == 12870 > timing._SHOT_CHUNK
    n_shots = 2 * timing._SHOT_CHUNK + 1000
    uniforms = np.random.default_rng(np.random.Philox(17)).random(n_shots)
    expected = Counter(sector[m].item()
                       for m in oracles.oracle_masks(probabilities, uniforms))
    result = run_shots(circuit, n_shots, master_seed=17)
    assert len(expected) > 20
    assert result.counts == dict(expected)


@pytest.mark.parametrize("seed", [21, 2**130])
@pytest.mark.parametrize("mode", ["off", "factor", "mc"])
def test_counts_do_not_depend_on_chunk_size(monkeypatch, mode, seed):
    circuit = mach_zehnder(arm_um=6.0, internal_phase=0.7)
    # a trailing segment makes the segment count odd in mc mode
    circuit = dataclasses.replace(circuit, segments=circuit.segments + (
        Segment(1, 4.0, len(circuit.elements)),))
    dephasing = DephasingModel(30.0, mode)
    histograms = []
    for chunk in (1, 7, 8192):
        monkeypatch.setattr(timing, "_SHOT_CHUNK", chunk)
        histograms.append(run_shots(circuit, 300, dephasing=dephasing,
                                    master_seed=seed).counts)
    assert len(histograms[0]) == 2
    assert histograms[0] == histograms[1] == histograms[2]


# --- model validation --------------------------------------------------------


def test_model_validation():
    with pytest.raises(ValueError):
        SepSource(0, -1.0)
    with pytest.raises(ValueError):
        PropagationModel(velocity=0.0)
    with pytest.raises(ValueError):
        PropagationModel(coincidence_window=0.0)
    with pytest.raises(ValueError):
        DephasingModel(l_phi=0.0)
    with pytest.raises(ValueError):
        DephasingModel(mode="thermal")
    assert DephasingModel(mode="MC").mode == "monte-carlo"
    assert DephasingModel(mode="factor").mode == "deterministic-factor"


@pytest.mark.parametrize("value", ["1.5", np.float64(1.5), np.float32(1.5)],
                         ids=["str", "float64", "float32"])
def test_model_numbers_are_stored_as_the_floats_they_are_checked_as(value):
    # a string once raised TypeError from the comparison with 0, and a
    # float32 was stored as given
    propagation = PropagationModel(value, value)
    dephasing = DephasingModel(value, "mc")
    stored = (propagation.velocity, propagation.coincidence_window,
              dephasing.l_phi)
    assert [type(x) for x in stored] == [float] * 3
    assert stored == (1.5,) * 3
    assert propagation == PropagationModel(1.5, 1.5)
    assert dephasing == DephasingModel(1.5, "mc")


@pytest.mark.parametrize("field", ["velocity", "coincidence_window", "l_phi"])
@pytest.mark.parametrize("value", ["fast", None, [1.0]])
def test_model_numbers_that_are_not_numbers_are_refused(field, value):
    model = DephasingModel if field == "l_phi" else PropagationModel
    with pytest.raises(ValueError, match=f"{field} must be a number"):
        model(**{field: value})


@pytest.mark.parametrize("delay", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
def test_source_delay_must_be_finite(delay):
    with pytest.raises(ValueError, match="emission_delay must be finite and >= 0"):
        SepSource(0, delay)


@pytest.mark.parametrize("emits", ["False", "", 0, 1, None, np.int64(1)],
                         ids=["str", "empty-str", "0", "1", "None", "int64"])
def test_source_emits_must_be_a_bool(emits):
    # emits was read by truthiness: "False" loaded an electron, and
    # serialize then wrote the source without 'empty'
    with pytest.raises(ValueError, match="emits must be a bool"):
        SepSource(1, 0.0, emits)


@pytest.mark.parametrize("emits", [np.True_, np.False_])
def test_source_emits_is_stored_as_a_bool(emits):
    source = SepSource(1, 0.0, emits)
    assert type(source.emits) is bool and source.emits == emits
    circuit = Circuit(2, [WaveguideCoupler((0, 1), **BALANCED)],
                      sources=[SepSource(0, 0.0), source], detectors=[0, 1])
    assert parse_circuit(serialize(circuit)) == circuit


def test_run_shots_argument_validation():
    circuit = mach_zehnder()
    with pytest.raises(ValueError):
        run_shots(circuit, 0)
    with pytest.raises(ValueError):
        run_shots(circuit, 10, master_seed=-1)


@pytest.mark.parametrize("argument, value", [
    ("n_shots", 2.5), ("n_shots", 10.0), ("n_shots", True),
    ("master_seed", 1.5), ("master_seed", 3.0), ("master_seed", True),
])
def test_run_shots_refuses_counts_and_seeds_that_are_not_integers(argument, value):
    arguments = {"n_shots": 10, "master_seed": 0, argument: value}
    with pytest.raises(ValueError, match=f"{argument} must be an integer, "
                                         f"got {value!r}"):
        run_shots(mach_zehnder(), **arguments)


def test_run_shots_accepts_numpy_integers():
    circuit = mach_zehnder(arm_um=6.0, internal_phase=0.7)
    numpy_ints = run_shots(circuit, np.int64(300), master_seed=np.uint32(5))
    plain = run_shots(circuit, 300, master_seed=5)
    assert numpy_ints.counts == plain.counts
    assert numpy_ints.n_shots == 300
