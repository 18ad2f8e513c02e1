"""Segment grouping: every consumer reads wire in netlist order and rejects
segments placed outside the circuit."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flyqsim.budget import analyze
from flyqsim.gates import CoulombCoupler, PhaseShifter, WaveguideCoupler, rails_of
from flyqsim.netlist import (
    Circuit,
    Segment,
    expand_composites,
    parse_circuit,
    serialize,
)
from flyqsim.timing import (
    DephasingModel,
    PropagationModel,
    SepSource,
    arrival_times,
    run_shots,
)

import corpus

BALANCED = dict(coupling_length=0.14, transfer_length=0.28)


def reference_arrivals(circuit, sources, velocity):
    """Arrival table by scanning every segment for every element and rail."""
    delays = {src.rail: src.emission_delay for src in sources}
    # netlist order: by position, then list order within a position
    ordered = sorted(circuit.segments, key=lambda s: s.position)
    rows = []
    for index, element in enumerate(circuit.elements):
        times = {}
        for rail in rails_of(element):
            traveled = 0.0
            for seg in ordered:
                if seg.rail == rail and seg.position <= index:
                    traveled += seg.length
            times[rail] = delays[rail] + traveled / velocity
        rows.append((index, rails_of(element), times))
    return rows


def check_segment_consumers(circuit):
    # dataclasses.replace re-runs the constructor, which puts segments back in
    # netlist order; for a circuit built in one go it equals the circuit itself
    assert parse_circuit(serialize(circuit)) == dataclasses.replace(circuit)
    sources = [SepSource(r, 1.5 * r) for r in range(circuit.n_rails)]
    model = PropagationModel(velocity=0.3)
    table = arrival_times(circuit, model, sources)
    assert [(a.element_index, a.rails, a.times) for a in table] == \
        reference_arrivals(circuit, sources, model.velocity)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_consumers_agree_on_random_circuits(seed):
    check_segment_consumers(corpus.random_roundtrip_circuit(np.random.default_rng(seed)))


def three_rail_circuit(segments):
    return Circuit(
        n_rails=3,
        elements=[PhaseShifter(0, 0.3), WaveguideCoupler((0, 1), **BALANCED),
                  CoulombCoupler((1, 2), 0.5)],
        segments=segments,
        sources=[SepSource(r, 0.0) for r in range(3)],
        detectors=[0, 1, 2],
    )


def several_at_one_position():
    return three_rail_circuit([Segment(0, 1.0, 1), Segment(1, 2.0, 1),
                               Segment(0, 0.5, 1), Segment(2, 3.0, 0)])


def trailing_segments():
    return three_rail_circuit([Segment(1, 4.0, 3), Segment(0, 2.5, 3),
                               Segment(2, 1.25, 2)])


def appended_after_construction():
    circuit = three_rail_circuit([Segment(0, 1.0, 2), Segment(1, 2.0, 3)])
    circuit.segments.append(Segment(2, 7.0, 1))
    circuit.segments.append(Segment(1, 0.75, 2))
    return circuit


@pytest.mark.parametrize("build", [several_at_one_position, trailing_segments,
                                   appended_after_construction])
def test_consumers_agree_on_hand_made_circuits(build):
    check_segment_consumers(build())


def test_mc_normals_follow_netlist_order():
    # the appended segment sits at position 1, so in netlist order it takes the
    # normal before the one of the position-2 segment that precedes it in the list
    circuit = Circuit(
        n_rails=2,
        elements=[WaveguideCoupler((0, 1), **BALANCED)] * 3,
        segments=[Segment(0, 9.0, 2), Segment(1, 1.0, 1)],
        sources=[SepSource(0, 0.0), SepSource(1, 0.0, emits=False)],
        detectors=[0, 1],
    )
    circuit.segments.append(Segment(0, 4.0, 1))
    kwargs = dict(dephasing=DephasingModel(5.0, "mc"), master_seed=5,
                  allow_desync=True)
    appended = run_shots(circuit, 400, **kwargs)
    canonical = run_shots(dataclasses.replace(circuit), 400, **kwargs)
    assert appended.counts == canonical.counts


def out_of_range(segment):
    circuit = three_rail_circuit([Segment(0, 1.0, 1)])
    circuit.segments.append(segment)
    return circuit


BAD_SEGMENTS = {
    "negative position": Segment(0, 1.0, -1),
    "position past trailing": Segment(0, 1.0, 4),
    "negative rail": Segment(-1, 1.0, 0),
    "rail past last": Segment(3, 1.0, 0),
}

CONSUMERS = {
    "serialize": serialize,
    "expand_composites": expand_composites,
    "arrival_times": arrival_times,
    "run_shots mc": lambda c: run_shots(c, 10, dephasing=DephasingModel(30.0, "mc")),
    "budget.analyze": analyze,
}


@pytest.mark.parametrize("consumer", CONSUMERS.values(), ids=CONSUMERS.keys())
@pytest.mark.parametrize("segment", BAD_SEGMENTS.values(), ids=BAD_SEGMENTS.keys())
def test_out_of_range_segment_raises(segment, consumer):
    with pytest.raises(ValueError, match="segment (position|rail)"):
        consumer(out_of_range(segment))
