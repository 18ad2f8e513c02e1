import dataclasses
import math

import numpy as np
import pytest

from flyqsim.budget import (
    GAAS_L_PHI_UM,
    GOLD_L_PHI_UM,
    L_PHI_PRESETS,
    analyze,
    rail_path_lengths,
)
from flyqsim.gates import PhaseShifter, WaveguideCoupler
from flyqsim.netlist import Circuit, Segment, parse_circuit
from flyqsim.timing import SepSource


def wire_circuit(*segment_lengths, coupler=False):
    elements = [WaveguideCoupler((0, 1), 0.14, 0.28)] if coupler else []
    segments = [Segment(0, length, 0) for length in segment_lengths]
    return Circuit(n_rails=2, elements=elements, segments=segments,
                   sources=[SepSource(0, 0.0), SepSource(1, 0.0)])


def test_feasible_count_gaas():
    report = analyze(wire_circuit(), l_phi=30.0, assumed_gate_length=1.0)
    assert report.feasible_gate_count == 30


def test_feasible_count_gold_preset():
    report = analyze(wire_circuit(), l_phi=L_PHI_PRESETS["gold"],
                     assumed_gate_length=1.0)
    assert report.feasible_gate_count == 18
    assert GOLD_L_PHI_UM == 18.0
    assert GAAS_L_PHI_UM == 30.0


def test_rail_path_includes_coupler_footprint():
    report = analyze(wire_circuit(1.0, 2.0, 3.0, coupler=True))
    assert report.per_rail_length[0] == pytest.approx(6.14)
    assert report.per_rail_length[1] == pytest.approx(0.14)
    assert report.max_length == pytest.approx(6.14)


def test_coherence_at_one_coherence_length():
    report = analyze(wire_circuit(30.0), l_phi=30.0)
    assert report.coherence_factor == pytest.approx(math.exp(-1), abs=1e-12)


def test_explicit_element_length_overrides_default():
    circuit = dataclasses.replace(wire_circuit(),
                                  elements=[PhaseShifter(0, 0.2, length=0.75)])
    assert rail_path_lengths(circuit)[0] == pytest.approx(0.75)


def test_monotone_in_added_wire():
    shorter = analyze(wire_circuit(5.0))
    longer = analyze(wire_circuit(5.0, 0.5))
    assert longer.coherence_factor < shorter.coherence_factor


def test_feasible_count_scales_linearly():
    base = analyze(wire_circuit(), l_phi=12.0, assumed_gate_length=1.0)
    doubled = analyze(wire_circuit(), l_phi=24.0, assumed_gate_length=1.0)
    assert doubled.feasible_gate_count == 2 * base.feasible_gate_count


def test_empty_circuit_budget():
    report = analyze(Circuit(n_rails=1))
    assert report.max_length == 0.0
    assert report.coherence_factor == 1.0


def test_invalid_parameters():
    with pytest.raises(ValueError):
        analyze(wire_circuit(), l_phi=0.0)
    with pytest.raises(ValueError):
        analyze(wire_circuit(), l_phi=30.0, assumed_gate_length=0.0)


@pytest.mark.parametrize("value", ["30", np.float64(30.0), np.float32(30.0)],
                         ids=["str", "float64", "float32"])
def test_budget_numbers_are_stored_as_the_floats_they_are_checked_as(value):
    # a string once raised TypeError from the comparison with 0
    report = analyze(wire_circuit(6.0), l_phi=value, assumed_gate_length=value)
    assert type(report.l_phi) is float
    assert type(report.assumed_gate_length) is float
    assert report == analyze(wire_circuit(6.0), l_phi=30.0,
                             assumed_gate_length=30.0)
    with pytest.raises(ValueError, match="l_phi must be a number"):
        analyze(wire_circuit(), l_phi="far")
    with pytest.raises(ValueError, match="assumed_gate_length must be a number"):
        analyze(wire_circuit(), assumed_gate_length=None)


def test_budget_reads_the_expansion_of_macros():
    # a fredkin puts 0.28 um on its targets and nothing on its control, so
    # no single footprint per macro could give the expanded circuit's lengths
    circuit = parse_circuit("rails 3\nsep q0 delay=0ps\nsep q1 delay=0ps\n"
                            "sep q2 delay=0ps empty\nfredkin q0 q1 q2\n")
    assert rail_path_lengths(circuit) == rail_path_lengths(circuit.expanded)
    report = analyze(circuit)
    assert report == analyze(circuit.expanded)
    assert report.per_rail_length == pytest.approx((0.0, 0.28, 0.28))


def test_budget_ratio_that_is_not_finite_is_refused():
    for l_phi, gate_length in ((math.inf, 1.0), (1e308, 1e-10)):
        with pytest.raises(ValueError, match="must be finite"):
            analyze(wire_circuit(), l_phi=l_phi, assumed_gate_length=gate_length)
    report = analyze(wire_circuit(), l_phi=1e308, assumed_gate_length=1.0)
    assert report.feasible_gate_count == int(1e308)
