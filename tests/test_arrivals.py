"""The array-backed arrival table against the scalar loop of
``oracles.arrival_rows`` over the circuit's expansion: the same times bit for
bit, the same late entries and the same missing-source error."""

import math

import numpy as np
import pytest

from flyqsim.gates import (
    CompositeGate,
    CoulombCoupler,
    PhaseShifter,
    WaveguideCoupler,
)
from flyqsim.netlist import Circuit, Segment
from flyqsim.timing import (
    ArrivalTable,
    ConfigError,
    PropagationModel,
    SepSource,
    arrival_times,
    check_coincidence,
)

import corpus
import oracles

BALANCED = dict(coupling_length=0.14, transfer_length=0.28)
WINDOWS = (1e-9, 1.0, 40.0, 400.0)


def oracle_times(table: ArrivalTable, rows) -> np.ndarray:
    """The oracle's arrivals in the table's layout: one column per element,
    its first and its last rail."""
    times = np.empty_like(table.times)
    for index, row in enumerate(rows):
        times[:, index] = [row.times[row.rails[0]], row.times[row.rails[-1]]]
    return times


def assert_matches_oracle(circuit, model=None):
    """Same times, entries and late entries as the scalar loop over the
    expansion, or the same ``ConfigError``."""
    try:
        rows = oracles.arrival_rows(oracles.expand_composites(circuit), model)
    except ConfigError as err:
        with pytest.raises(ConfigError) as raised:
            arrival_times(circuit, model)
        assert str(raised.value) == str(err)
        return None
    table = arrival_times(circuit, model)
    assert table.times.shape == (2, len(rows))
    assert np.array_equal(table.times, oracle_times(table, rows))
    assert list(table) == rows
    assert [table[i] for i in range(len(rows))] == rows
    for window in WINDOWS:
        assert check_coincidence(table, window) == oracles.late_rows(rows, window)
    return table


def test_corpus_circuits_match_the_scalar_loop():
    rng = np.random.default_rng(12)
    raised = late = 0
    for _ in range(300):
        circuit = corpus.random_roundtrip_circuit(rng)
        model = PropagationModel(float(rng.uniform(0.05, 2.0)))
        # macros included: each is timed as its primitives
        table = assert_matches_oracle(circuit, model)
        if table is None:
            raised += 1
            continue
        late += bool(check_coincidence(table, 1.0))
        assert np.array_equal(arrival_times(circuit.expanded, model).times,
                              table.times)
    for _ in range(100):
        assert_matches_oracle(corpus.random_dephased_circuit(rng, max_segments=30))
    # both paths of the comparison were taken
    assert raised > 20 and late > 20


def long_random_circuit(seed, n_rails=8, n_elements=3000, n_segments=3000):
    """A long netlist with several segments per rail and position and
    lengths whose sums round differently when grouped."""
    rng = np.random.default_rng(seed)
    elements = [corpus.random_primitive(rng, n_rails) for _ in range(n_elements)]
    positions = np.sort(rng.integers(0, n_elements + 1, n_segments))
    segments = [Segment(int(rng.integers(n_rails)),
                        float(rng.choice([0.1, 0.2, 0.3, rng.uniform(0, 0.05)])),
                        int(p)) for p in positions]
    sources = [SepSource(r, float(rng.uniform(0, 3))) for r in range(n_rails)]
    return Circuit(n_rails, elements, segments, sources)


@pytest.mark.parametrize("seed", [1, 2])
def test_long_circuit_matches_the_scalar_loop(seed):
    table = assert_matches_oracle(long_random_circuit(seed), PropagationModel(0.3))
    assert len(check_coincidence(table, 1.0)) > 0


def three_rail_circuit(segments, sources=None):
    if sources is None:
        sources = [SepSource(r, 0.0) for r in range(3)]
    return Circuit(
        n_rails=3,
        elements=[PhaseShifter(0, 0.3), WaveguideCoupler((0, 1), **BALANCED),
                  CoulombCoupler((1, 2), 0.5), PhaseShifter(2, 0.1)],
        segments=segments,
        sources=sources,
    )


def test_several_segments_on_one_rail_add_one_by_one():
    # (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3): the wire is not summed per
    # position first
    circuit = three_rail_circuit([Segment(0, 0.1, 1), Segment(0, 0.2, 1),
                                  Segment(1, 0.6, 1), Segment(0, 0.3, 1)])
    table = assert_matches_oracle(circuit, PropagationModel(1.0))
    assert table[1].times == {0: 0.6000000000000001, 1: 0.6}
    assert [v.element_index for v in check_coincidence(table, 1e-17)] == [1, 2]


def test_segments_declared_out_of_position_order():
    circuit = three_rail_circuit([Segment(2, 7.0, 3), Segment(0, 1.0, 2),
                                  Segment(1, 2.0, 1), Segment(1, 0.75, 2),
                                  Segment(0, 0.5, 0)])
    table = assert_matches_oracle(circuit, PropagationModel(0.5))
    assert table[2].times == {1: 5.5, 2: 0.0}
    assert table[3].times == {2: 14.0}


def test_trailing_wire_reaches_no_element():
    bare = arrival_times(three_rail_circuit([Segment(1, 1.0, 2)]))
    trailing = three_rail_circuit([Segment(1, 1.0, 2), Segment(0, 9.0, 4),
                                   Segment(2, 3.0, 4)])
    table = assert_matches_oracle(trailing)
    assert np.array_equal(table.times, bare.times)


def test_one_rail_elements_are_never_late():
    circuit = Circuit(2, [PhaseShifter(0, 0.1), PhaseShifter(1, 0.2)],
                      [Segment(0, 50.0, 0), Segment(1, 1.0, 1)],
                      [SepSource(0, 0.0), SepSource(1, 90.0)])
    table = assert_matches_oracle(circuit)
    assert table.times.shape == (2, 2)
    assert [entry.spread for entry in table] == [0.0, 0.0]
    assert check_coincidence(table, 1e-300) == []


def test_fredkin_is_timed_as_its_primitives():
    # a fredkin couples control and t0 (cc) and t0 and t1 (bs), never
    # control and t1: those two may arrive further apart than the window
    circuit = Circuit(4, [CompositeGate("fredkin", (0, 1, 2)),
                          PhaseShifter(3, 0.1), CoulombCoupler((3, 0), 0.2)],
                      [Segment(1, 0.6, 0), Segment(2, 1.2, 0)],
                      [SepSource(r, 0.0) for r in range(4)])
    table = assert_matches_oracle(circuit, PropagationModel(1.0))
    assert table.times.shape == (2, 8)
    assert [entry.keyword for entry in table] == [
        "ps", "bs", "ps", "cc", "bs", "ps", "ps", "cc"]
    assert table[3].times == {0: 0.0, 1: 0.6}
    assert table[4].times == {1: 0.6, 2: 1.2}
    assert check_coincidence(table, 1.0) == []
    # in a narrower window the primitives that couple them are late
    assert [v.element_index for v in check_coincidence(table, 0.5)] == [1, 3, 4]


def test_missing_source_names_the_first_element_in_order():
    # elements 2 and 3 both lack the source on rail 2; element 2 is named
    sources = [SepSource(0, 0.0), SepSource(1, 0.0)]
    circuit = three_rail_circuit([Segment(2, 1.0, 1)], sources)
    assert_matches_oracle(circuit)
    with pytest.raises(ConfigError,
                       match=r"^element 2 \(cc\) needs a source on q2$"):
        arrival_times(circuit)
    # every missing rail of the element is listed, in its rail order
    lone = Circuit(3, [PhaseShifter(0, 0.1), WaveguideCoupler((2, 1), **BALANCED)],
                   sources=[SepSource(0, 0.0)])
    assert_matches_oracle(lone)
    with pytest.raises(ConfigError,
                       match=r"^element 1 \(bs\) needs a source on q2, q1$"):
        arrival_times(lone)


def test_table_is_a_sequence_of_element_arrivals():
    circuit = three_rail_circuit([Segment(0, 1.0, 0), Segment(2, 2.0, 2)])
    table = arrival_times(circuit, PropagationModel(0.5))
    rows = oracles.arrival_rows(circuit, PropagationModel(0.5))
    assert len(table) == 4
    assert table[-1] == rows[-1] and table[-1].element_index == 3
    assert table[1:3] == rows[1:3]
    assert table[::-1] == rows[::-1]
    with pytest.raises(IndexError):
        table[4]
    assert list(arrival_times(Circuit(2))) == []
    assert check_coincidence(arrival_times(Circuit(2)), 1.0) == []


def test_times_are_python_floats_in_entries():
    table = arrival_times(three_rail_circuit([Segment(0, 1.0, 0)]))
    assert all(type(t) is float for entry in table for t in entry.times.values())
    assert math.isclose(table[0].times[0], 10.0)
