"""Segment grouping: the circuit's constructor puts wire in netlist order and
rejects segments placed outside the circuit, and every consumer reads that
order."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flyqsim.budget import analyze
from flyqsim.gates import CoulombCoupler, PhaseShifter, WaveguideCoupler
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
        for rail in element.rails:
            traveled = 0.0
            for seg in ordered:
                if seg.rail == rail and seg.position <= index:
                    traveled += seg.length
            times[rail] = delays[rail] + traveled / velocity
        rows.append((index, element.rails, times))
    return rows


def check_segment_consumers(circuit):
    assert parse_circuit(serialize(circuit)) == circuit
    sources = [SepSource(r, 1.5 * r) for r in range(circuit.n_rails)]
    model = PropagationModel(velocity=0.3)
    table = arrival_times(dataclasses.replace(circuit, sources=sources), model)
    assert [(a.element_index, a.rails, a.times) for a in table] == \
        reference_arrivals(circuit.expanded, sources, model.velocity)


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


# out of netlist order, as appending wire to a list of segments leaves it
OUT_OF_ORDER = [Segment(0, 1.0, 2), Segment(1, 2.0, 3), Segment(2, 7.0, 1),
                Segment(1, 0.75, 2)]


def appended_after_construction():
    return three_rail_circuit(OUT_OF_ORDER)


@pytest.mark.parametrize("build", [several_at_one_position, trailing_segments,
                                   appended_after_construction])
def test_consumers_agree_on_hand_made_circuits(build):
    check_segment_consumers(build())


def test_mc_normals_follow_netlist_order():
    # the position-1 segment is third in the list, so in netlist order it takes
    # the first normal; the electron is split over rails 0 and 2 there
    def interferometer(segments):
        return Circuit(
            n_rails=3,
            elements=[WaveguideCoupler((0, 2), **BALANCED),
                      WaveguideCoupler((0, 1), **BALANCED),
                      WaveguideCoupler((0, 2), **BALANCED)],
            segments=segments,
            sources=[SepSource(0, 0.0), SepSource(1, 0.0, emits=False),
                     SepSource(2, 0.0, emits=False)],
            detectors=[0, 1, 2],
        )

    kwargs = dict(dephasing=DephasingModel(5.0, "mc"), master_seed=5,
                  allow_desync=True)
    listed = run_shots(interferometer(OUT_OF_ORDER), 400, **kwargs)
    in_order = sorted(OUT_OF_ORDER, key=lambda s: s.position)
    canonical = run_shots(interferometer(in_order), 400, **kwargs)
    assert listed.counts == canonical.counts


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
    "run_shots mc": lambda c: run_shots(c, 10, dephasing=DephasingModel(30.0, "mc"),
                                        allow_desync=True),
    "budget.analyze": analyze,
}


# the constructor is the one segment check: every way of handing a consumer a
# circuit with the bad segment fails before the consumer is called
@pytest.mark.parametrize("consumer", CONSUMERS.values(), ids=CONSUMERS.keys())
@pytest.mark.parametrize("segment", BAD_SEGMENTS.values(), ids=BAD_SEGMENTS.keys())
def test_out_of_range_segment_raises(segment, consumer):
    circuit = three_rail_circuit([Segment(0, 1.0, 1)])
    consumer(circuit)
    with pytest.raises(ValueError, match="segment (position|rail)"):
        consumer(three_rail_circuit([Segment(0, 1.0, 1), segment]))
    with pytest.raises(ValueError, match="segment (position|rail)"):
        consumer(dataclasses.replace(circuit, segments=circuit.segments + (segment,)))
    with pytest.raises(AttributeError):
        circuit.segments.append(segment)
    with pytest.raises(dataclasses.FrozenInstanceError):
        circuit.segments = circuit.segments + (segment,)
    assert circuit.segments == (Segment(0, 1.0, 1),)


@pytest.mark.parametrize("length", [-1.0, -1e-300, math.nan, math.inf, -math.inf],
                         ids=["negative", "tiny negative", "nan", "inf", "-inf"])
def test_bad_segment_length_raises(length):
    with pytest.raises(ValueError, match="segment length must be finite and >= 0"):
        three_rail_circuit([Segment(0, 1.0, 1), Segment(2, length, 3)])
