import dataclasses
import math
import re

import numpy as np
import pytest

from flyqsim.cli import RunConfig
from flyqsim.gates import (
    CompositeGate,
    CoulombCoupler,
    PhaseShifter,
    WaveguideCoupler,
    coupler_angle,
    fredkin_circuit,
    logical_hadamard,
)
from flyqsim.netlist import (
    Circuit,
    NetlistError,
    Segment,
    expand_composites,
    parse,
    parse_circuit,
    serialize,
)
from flyqsim.timing import DephasingModel, SepSource, run_shots

CANONICAL = """\
rails 3
sep q0 delay=0ps
sep q1 delay=0ps
sep q2 delay=0ps empty
bs q1 q2 lc=0.14um lt=0.28um
cc q0 q1 chit=1.5707963rad
bs q1 q2 lc=0.14um lt=0.28um
set q0
set q1
set q2
"""


def errors_of(result):
    return [(d.line, d.column, d.message) for d in result.diagnostics
            if d.severity == "error"]


def test_parse_canonical_topology():
    result = parse(CANONICAL)
    assert result.ok
    circuit = result.circuit
    assert circuit.n_rails == 3
    assert len(circuit.elements) == 3
    assert isinstance(circuit.elements[0], WaveguideCoupler)
    assert isinstance(circuit.elements[1], CoulombCoupler)
    assert circuit.elements[1].chi_t == pytest.approx(np.pi / 2, abs=1e-6)
    assert [s.emits for s in circuit.sources] == [True, True, False]
    assert circuit.detectors == (0, 1, 2)


def test_parse_rejects_degenerate_coupler():
    result = parse("rails 2\nbs q0 q0 lc=0.14um lt=0.28um\n")
    assert not result.ok
    (line, column, message), = errors_of(result)
    assert line == 2
    assert message == "coupler rails must be distinct"
    assert column == 7  # points at the repeated rail token


def test_parse_empty_input():
    result = parse("")
    assert not result.ok
    assert any("no rails declared" in m for _, _, m in errors_of(result))


def test_parse_statement_before_rails():
    result = parse("sep q0 delay=0ps\nrails 2\n")
    assert not result.ok
    assert errors_of(result)[0][0] == 1


def test_parse_requires_units():
    result = parse("rails 2\nsegment q0 1.5\nps q1 phi=0.5\n")
    assert not result.ok
    messages = [m for _, _, m in errors_of(result)]
    assert any("'um'" in m for m in messages)
    assert any("'rad'" in m for m in messages)


def test_parse_unknown_statement():
    result = parse("rails 1\nteleport q0\n")
    assert not result.ok
    assert "unknown statement 'teleport'" in errors_of(result)[0][2]


def test_parse_rail_identifier_rules():
    result = parse("rails 2\nset Q0\n")  # rail names are case-sensitive
    assert not result.ok
    result = parse("rails 2\nset q5\n")
    assert not result.ok
    assert "out of range" in errors_of(result)[0][2]


def test_parse_duplicate_source():
    result = parse("rails 1\nsep q0 delay=0ps\nsep q0 delay=1ps\n")
    assert not result.ok
    assert "duplicate source" in errors_of(result)[0][2]


def test_parse_duplicate_detector_warns():
    result = parse("rails 1\nset q0\nset q0\n")
    assert result.ok
    assert [d.severity for d in result.diagnostics] == ["warning"]
    assert result.circuit.detectors == (0,)


def test_parse_rails_validation():
    assert not parse("rails 0\n").ok
    assert not parse("rails 64\n").ok
    assert parse("rails 63\n").ok
    assert not parse("rails 2\nrails 3\n").ok
    assert not parse("rails two\n").ok


def test_parse_negative_values_rejected():
    assert not parse("rails 1\nsegment q0 -1um\n").ok
    assert not parse("rails 1\nsep q0 delay=-2ps\n").ok
    assert not parse("rails 2\nbs q0 q1 lc=-0.1um lt=0.28um\n").ok
    assert not parse("rails 2\nbs q0 q1 lc=0.1um lt=0um\n").ok


def test_parse_macros():
    result = parse("rails 3\nhadamard q0 q1\nfredkin q0 q1 q2\n")
    assert result.ok
    assert result.circuit.elements == (
        CompositeGate("hadamard", (0, 1)),
        CompositeGate("fredkin", (0, 1, 2)),
    )


def test_parse_macro_rail_collision():
    result = parse("rails 3\nfredkin q0 q1 q1\n")
    assert not result.ok
    assert "macro rails must be distinct" in errors_of(result)[0][2]


def test_parse_dualrail_collisions():
    result = parse("rails 4\ndualrail a q0 q1\ndualrail b q1 q2\n")
    assert not result.ok
    assert "already used by register 'a'" in errors_of(result)[0][2]
    assert not parse("rails 4\ndualrail a q0 q1\ndualrail a q2 q3\n").ok
    assert not parse("rails 2\ndualrail a q0 q0\n").ok


def test_parse_len_attribute():
    result = parse("rails 2\ncc q0 q1 chit=0.5rad len=0.9um\n")
    assert result.ok
    assert result.circuit.elements[0].length == pytest.approx(0.9)


def test_parse_accepts_a_phase_the_dots_cannot_reach():
    # one parsing mode: realizability is a fact of the element, not a
    # diagnostic
    result = parse("rails 1\nps q0 phi=-0.5rad\n")
    assert result.ok
    assert not result.circuit.elements[0].hardware_realizable


def test_parse_trailing_garbage():
    assert not parse("rails 1\nset q0 extra\n").ok
    assert not parse("rails 2\nsep q0 delay=0ps full\n").ok


def test_parse_comments_and_case():
    text = "# top comment\nRAILS 2  # inline\nSEP q0 DELAY=1.5ps\nSet q1\n"
    result = parse(text)
    assert result.ok
    assert result.circuit.sources == (SepSource(0, 1.5, True),)
    assert result.circuit.detectors == (1,)


def test_parse_circuit_raises_on_errors():
    with pytest.raises(NetlistError):
        parse_circuit("rails 0\n")


# --- serialization -----------------------------------------------------------


def test_roundtrip_canonical():
    circuit = parse_circuit(CANONICAL)
    again = parse_circuit(serialize(circuit))
    assert again == circuit


def test_roundtrip_preserves_element_order_and_values():
    circuit = Circuit(
        n_rails=3,
        elements=[
            PhaseShifter(2, 0.123456789012345),
            WaveguideCoupler((0, 1), 0.14, 0.28, length=0.5),
            CoulombCoupler((2, 0), -1.7e-3),
        ],
        segments=[Segment(1, 2.25, 1), Segment(0, 1e-7, 3)],
        sources=[SepSource(0, 3.5), SepSource(2, 0.0, emits=False)],
        detectors=[2, 0],
        registers=[("pair", (0, 1))],
    )
    again = parse_circuit(serialize(circuit))
    assert again == circuit
    assert [type(e) for e in again.elements] == [type(e) for e in circuit.elements]
    assert again.elements[0].phi == circuit.elements[0].phi  # exact, not approx


def test_roundtrip_at_the_rail_limit():
    # 63 rails, the most an int64 mask holds, with every statement on q62
    circuit = Circuit(
        n_rails=63,
        elements=[WaveguideCoupler((62, 0), 0.14, 0.28),
                  CoulombCoupler((0, 62), 0.5), CompositeGate("hadamard", (61, 62))],
        segments=[Segment(62, 1.5, 1)],
        sources=[SepSource(0, 0.0), SepSource(62, 2.0),
                 SepSource(61, 0.0, emits=False)],
        detectors=[62, 0],
        registers=[("last", (61, 62))],
    )
    assert "rails 63\n" in serialize(circuit)
    assert parse_circuit(serialize(circuit)) == circuit


def test_serialize_segment_interleaving():
    circuit = Circuit(
        n_rails=1,
        elements=[PhaseShifter(0, 0.5)],
        segments=[Segment(0, 1.0, 0), Segment(0, 2.0, 1)],
        sources=[SepSource(0, 0.0)],
    )
    text = serialize(circuit)
    lines = text.strip().splitlines()
    assert lines.index("segment q0 1.0um") < lines.index("ps q0 phi=0.5rad")
    assert lines.index("ps q0 phi=0.5rad") < lines.index("segment q0 2.0um")


# --- macro expansion ----------------------------------------------------------


def test_expand_fredkin_matches_synthesis():
    circuit = parse_circuit("rails 3\nfredkin q0 q1 q2\n")
    expanded = expand_composites(circuit)
    assert expanded.elements == tuple(fredkin_circuit(0, (1, 2)))


def test_expand_hadamard_matches_synthesis():
    circuit = parse_circuit("rails 2\nhadamard q0 q1\n")
    expanded = expand_composites(circuit)
    assert expanded.elements == tuple(logical_hadamard((0, 1)))


def test_expand_without_macros_is_identity():
    circuit = parse_circuit(CANONICAL)
    assert expand_composites(circuit) is circuit


def test_expand_remaps_segment_positions():
    text = ("rails 3\n"
            "segment q0 1.0um\n"
            "hadamard q0 q1\n"
            "segment q1 2.0um\n"
            "ps q2 phi=0.25rad\n"
            "segment q2 3.0um\n")
    expanded = expand_composites(parse_circuit(text))
    n_hadamard = len(logical_hadamard((0, 1)))
    assert [s.position for s in expanded.segments] == [
        0, n_hadamard, n_hadamard + 1]
    # round-trip still holds after expansion
    assert parse_circuit(serialize(expanded)) == expanded


@pytest.mark.parametrize("element", [
    WaveguideCoupler((-1, 0), 0.14, 0.28),
    PhaseShifter(3, 0.5),
    CoulombCoupler((0, 5), 0.5),
    CompositeGate("hadamard", (1, 3)),
], ids=["bs negative rail", "ps past last", "cc past last", "hadamard past last"])
def test_element_rail_out_of_range_is_rejected_at_construction(element):
    with pytest.raises(ValueError, match=r"rail -?\d+ outside \[0, 3\)"):
        Circuit(3, [PhaseShifter(0, 0.1), element])


@pytest.mark.parametrize("kwargs,match", [
    (dict(sources=[SepSource(0, 0.0), SepSource(5, 0.0)]),
     r"source rail 5 outside \[0, 3\)"),
    (dict(sources=[SepSource(-1, 0.0)]), r"source rail -1 outside \[0, 3\)"),
    (dict(sources=[SepSource(0, 0.0), SepSource(1, 0.0), SepSource(0, 2.0)]),
     r"two sources on rail 0"),
    (dict(detectors=[0, 7]), r"detector rail 7 outside \[0, 3\)"),
    (dict(detectors=[-1]), r"detector rail -1 outside \[0, 3\)"),
    (dict(detectors=[2, 0, 2]), r"detector rails repeat: \(2, 0, 2\)"),
    (dict(registers=[("r", (0, 9))]), r"register 'r' rail 9 outside \[0, 3\)"),
    (dict(registers=[("a", (0, 1)), ("b", (-2, 2))]),
     r"register 'b' rail -2 outside \[0, 3\)"),
    (dict(detectors=[1.0]), r"detector rail must be an integer, got 1.0"),
    (dict(detectors=[True]), r"detector rail must be an integer, got True"),
    (dict(registers=[("a", (0, 1.0))]), r"register rail must be an integer, got 1.0"),
], ids=["source past last", "source negative", "duplicate source",
        "detector past last", "detector negative", "detector repeated",
        "register past last", "register negative",
        "float detector", "bool detector", "float register rail"])
def test_circuit_rejects_bad_source_detector_and_register_rails(kwargs, match):
    with pytest.raises(ValueError, match=match):
        Circuit(3, [PhaseShifter(0, 0.1)], **kwargs)


@pytest.mark.parametrize("rail", [0.5, 1.5, "x", True, np.float64(1.0)])
def test_a_source_rail_must_be_an_integer(rail):
    # the one integer rule, as for element, detector and register rails
    with pytest.raises(ValueError,
                       match=f"^source rail must be an integer, got {re.escape(repr(rail))}$"):
        SepSource(rail, 0.0)


def test_a_source_stores_its_rail_as_an_int():
    # as its parse does: a numpy integer rail is kept as the int it holds
    source, = Circuit(2, sources=[SepSource(np.int64(1), 0.0)]).sources
    assert type(source.rail) is int
    assert repr(source) == repr(SepSource(1, 0.0))


@pytest.mark.parametrize("registers,match", [
    ([("a", (0, 1)), ("b", (1, 2))], r"register rails must be distinct"),
    ([("a", (0, 1)), ("a", (2, 3))], r"duplicate register name 'a'"),
    ([("a", (2, 2))], r"register rails must be distinct"),
    ([("1x", (0, 1))], r"invalid register name '1x'"),
    ([("a b", (0, 1))], r"invalid register name 'a b'"),
], ids=["shared rail", "repeated name", "repeated rail in pair",
        "name starts with digit", "name with space"])
def test_circuit_rejects_registers_the_parser_rejects(registers, match):
    # serialize would write each as a dualrail line that parse refuses
    with pytest.raises(ValueError, match=match):
        Circuit(4, [PhaseShifter(0, 0.1)], registers=registers)


@pytest.mark.parametrize("build,match", [
    (lambda: Circuit(0), r"rail count 0 outside \[1, 63\]"),
    (lambda: Circuit(64), r"rail count 64 outside \[1, 63\]"),
    (lambda: Circuit(True), r"rail count must be an integer, got True"),
    (lambda: Circuit(2.5, [PhaseShifter(0, 0.1)]),
     r"rail count must be an integer, got 2.5"),
    (lambda: Circuit(2, [PhaseShifter(0.5, 0.1)]),
     r"element rail must be an integer, got 0.5"),
    (lambda: Circuit(2, [PhaseShifter(True, 0.1)]),
     r"element rail must be an integer, got True"),
    (lambda: Circuit(2, [WaveguideCoupler((0, 1.0), 0.14, 0.28)]),
     r"element rail must be an integer, got 1.0"),
    (lambda: Circuit(2, [CompositeGate("hadamard", (0.0, 1))]),
     r"element rail must be an integer, got 0.0"),
    (lambda: Circuit(2, segments=[Segment(0.5, 1.0, 0)]),
     r"segment rail must be an integer, got 0.5"),
    (lambda: Circuit(2, segments=[Segment(0, 1.0, 0.5)]),
     r"segment position must be an integer, got 0.5"),
    (lambda: Circuit(2, segments=[Segment(0, 1.0, False)]),
     r"segment position must be an integer, got False"),
], ids=["zero rails", "rails past capacity", "bool rail count",
        "float rail count", "float ps rail", "bool ps rail", "float bs rail",
        "float macro rail", "float segment rail", "float segment position",
        "bool segment position"])
def test_circuit_rejects_rail_counts_rails_and_positions_a_netlist_cannot_spell(
        build, match):
    # serialize would write q0.5, qTrue or 'rails 2.5', which parse refuses
    with pytest.raises(ValueError, match=match):
        build()


def test_circuit_accepts_numpy_integers():
    rail = np.int64(1)
    circuit = Circuit(np.int64(2), [PhaseShifter(rail, np.float32(0.5))],
                      segments=[Segment(rail, 1.0, np.int64(1))],
                      sources=[SepSource(rail, 0.0)], detectors=[np.int64(0), rail])
    assert parse_circuit(serialize(circuit)) == circuit
    # hand-built fields read back in the one form a parse gives them
    shifter = circuit.elements[0]
    assert type(shifter.rail) is int and type(shifter.phi) is float
    assert shifter == PhaseShifter(1, float(np.float32(0.5)))
    assert type(circuit.n_rails) is int
    assert circuit.detectors == (0, 1)
    assert [type(rail) for rail in circuit.detectors] == [int, int]


def test_circuit_stores_segments_given_as_triples_as_segments():
    circuit = Circuit(2, [PhaseShifter(0, 0.1)], segments=[(1, 2, 1), [0, 1.5, 0]])
    assert circuit.segments == (Segment(0, 1.5, 0), Segment(1, 2.0, 1))
    assert [type(seg) for seg in circuit.segments] == [Segment, Segment]
    assert type(circuit.wire[1][0].length) is float


def angle_circuit(angle):
    """Three rails, an interferometer on (q1, q2) whose arm q1 carries a
    phase shifter and a Coulomb coupler to q0, both at ``angle``."""
    return Circuit(
        3, [WaveguideCoupler((1, 2), 0.14), PhaseShifter(1, angle),
            CoulombCoupler((0, 1), angle), WaveguideCoupler((1, 2), 0.14)],
        segments=[Segment(r, 2.0, 1) for r in range(3)],
        sources=[SepSource(0, 0.0), SepSource(1, 0.0),
                 SepSource(2, 0.0, emits=False)],
        detectors=[0, 1, 2])


@pytest.mark.parametrize("angle", ["0.5", np.float64(0.5), np.float32(0.5)],
                         ids=["str", "float64", "float32"])
def test_phase_angles_are_stored_as_the_floats_they_are_checked_as(angle):
    # phi and chi_t once kept the raw argument: a string was accepted, then
    # did not round-trip and raised TypeError in the sector kernels
    circuit = angle_circuit(angle)
    shifter, coupler = circuit.elements[1:3]
    assert type(shifter.phi) is float and type(coupler.chi_t) is float
    assert circuit == angle_circuit(0.5)
    assert parse_circuit(serialize(circuit)) == circuit
    for mode in ("off", "factor", "mc"):
        dephasing = DephasingModel(30.0, mode)
        result = run_shots(circuit, 200, dephasing=dephasing, master_seed=4)
        expected = run_shots(angle_circuit(0.5), 200, dephasing=dephasing,
                             master_seed=4)
        assert result.counts == expected.counts
        assert len(result.counts) > 1


@pytest.mark.parametrize("value", ["0.14", np.float64(0.14), np.float32(0.14)],
                         ids=["str", "float64", "float32"])
def test_lengths_and_delays_are_stored_as_the_floats_they_are_checked_as(value):
    coupler = WaveguideCoupler((0, 1), value, value)
    source = SepSource(0, value)
    circuit = Circuit(2, [coupler], segments=[Segment(0, value, 0)],
                      sources=[source, SepSource(1, 0.0)])
    stored = (coupler.coupling_length, coupler.transfer_length,
              source.emission_delay, circuit.segments[0].length)
    assert [type(x) for x in stored] == [float] * 4
    assert stored == (float(value),) * 4
    assert parse_circuit(serialize(circuit)) == circuit


def test_float32_coupling_length_gives_the_double_precision_angle():
    # a float32 field once made coupler_angle return np.float32(0.7853982),
    # 3e-8 from the angle of the length it holds
    coupler = WaveguideCoupler((0, 1), np.float32(0.14))
    angle = coupler_angle(coupler.coupling_length, coupler.transfer_length)
    assert type(angle) is float
    assert angle == (math.pi / 2) * (float(np.float32(0.14)) / 0.28)


@pytest.mark.parametrize("build", [
    lambda: WaveguideCoupler((0, 1), "long"),
    lambda: WaveguideCoupler((0, 1), 0.1, None),
    lambda: SepSource(0, "late"),
    lambda: Circuit(2, segments=[Segment(0, "long", 0)]),
    lambda: Circuit(2, segments=[Segment(0, None, 0)]),
    # a bool is no number, as it is no rail (fock.require_integer)
    lambda: PhaseShifter(0, True),
    lambda: WaveguideCoupler((0, 1), True),
    lambda: WaveguideCoupler((0, 1), 0.1, np.True_),
    lambda: SepSource(0, True),
    lambda: Circuit(2, segments=[Segment(0, True, 0)]),
    lambda: RunConfig("run.fq", l_phi=True),
], ids=["lc", "lt", "delay", "segment str", "segment None", "phi bool",
        "lc bool", "lt numpy bool", "delay bool", "segment bool", "l_phi bool"])
def test_non_numeric_lengths_and_delays_raise_value_error(build):
    with pytest.raises(ValueError, match="must be a number, got"):
        build()


class _Labelled(PhaseShifter):
    """A subclass: serialize writes lines by exact element type."""


@pytest.mark.parametrize("stranger", [
    dataclasses.make_dataclass("Probe", [("rails", tuple)])((0, 1)),
    _Labelled(0, 0.1),
    None,
], ids=["rails only", "subclass", "None"])
def test_circuit_refuses_an_element_that_is_not_a_gate_element(stranger):
    # an object with integer rails was once accepted, then failed in
    # analyze, arrival_times, run_shots or serialize
    elements = [PhaseShifter(0, 0.1), stranger]
    with pytest.raises(TypeError,
                       match=r"^element 1 is not a gate element: "):
        Circuit(2, elements)
    circuit = Circuit(2, elements[:1])
    with pytest.raises(TypeError, match="element 1 is not a gate element"):
        dataclasses.replace(circuit, elements=elements)


def test_register_pairs_are_frozen_tuples():
    circuit = Circuit(4, sources=[SepSource(0, 0.0)], registers=[("a", [0, 1])])
    assert circuit.registers == (("a", (0, 1)),)
    assert parse_circuit(serialize(circuit)) == circuit
    with pytest.raises(TypeError):
        circuit.registers[0][1][1] = 0
    assert all(type(r) is int for r in circuit.registers[0][1])


def test_circuit_stores_containers_as_tuples_and_wire_in_netlist_order():
    segments = [Segment(0, 1.0, 1), Segment(1, 2.0, 0), Segment(0, 3.0, 1)]
    circuit = Circuit(2, [PhaseShifter(0, 0.5)], segments=segments,
                      sources=[SepSource(0, 0.0)], detectors=[1, 0],
                      registers=[("q", (0, 1))])
    for name in ("elements", "segments", "sources", "detectors", "registers"):
        assert type(getattr(circuit, name)) is tuple, name
    assert circuit.registers == (("q", (0, 1)),)
    assert circuit.wire == ((segments[1],), (segments[0], segments[2]))
    assert circuit.segments == (segments[1], segments[0], segments[2])
    assert Circuit(2).registers == ()


@pytest.mark.parametrize("field", ["rail", "length", "position"])
def test_segment_is_immutable(field):
    segment = Segment(0, 1.0, 2)
    with pytest.raises(AttributeError):
        setattr(segment, field, 1)
    assert segment == Segment(rail=0, length=1.0, position=2)


def test_segment_repr_is_what_circuit_errors_embed():
    segment = Segment(1, 2.5, 7)
    assert repr(segment) == "Segment(rail=1, length=2.5, position=7)"
    assert (segment.rail, segment.length, segment.position) == (1, 2.5, 7)
    with pytest.raises(ValueError) as raised:
        Circuit(2, [PhaseShifter(0, 0.1)], segments=[segment])
    assert str(raised.value) == ("segment position 7 outside [0, 1]: "
                                 "Segment(rail=1, length=2.5, position=7)")


def test_wire_is_an_empty_tuple_where_there_is_no_wire():
    elements = [PhaseShifter(0, 0.1)] * 4
    segments = [Segment(1, 1.0, 2), Segment(0, 2.0, 4)]
    circuit = Circuit(2, elements, segments=segments)
    assert circuit.wire == ((), (), (segments[0],), (), (segments[1],))
    assert all(type(group) is tuple for group in circuit.wire)
    assert Circuit(1).wire == ((),)


def test_expanded_wire_is_grouped_from_the_expanded_segments():
    # a wire read on the declared circuit holds declared positions: the
    # expansion must group its own
    text = ("rails 3\nsep q0 delay=0ps\nsegment q1 1um\nfredkin q0 q1 q2\n"
            "segment q2 2um\nsegment q0 0.5um\n")
    circuit = parse_circuit(text)
    assert len(circuit.wire) == 2 and all(circuit.wire)
    expected = parse_circuit(text).expanded.wire
    assert circuit.expanded.wire == expected
    assert len(expected) == len(circuit.expanded.elements) + 1


def test_out_of_order_segments_keep_declaration_order_within_a_position():
    declared = [Segment(1, 1.0, 3), Segment(0, 2.0, 1), Segment(1, 3.0, 1),
                Segment(0, 4.0, 3), Segment(0, 5.0, 0), Segment(0, 6.0, 1)]
    circuit = Circuit(2, [PhaseShifter(0, 0.1)] * 3, segments=declared)
    assert circuit.wire == ((declared[4],),
                            (declared[1], declared[2], declared[5]),
                            (),
                            (declared[0], declared[3]))
    assert circuit.segments == tuple(sorted(declared, key=lambda s: s.position))
    assert parse_circuit(serialize(circuit)) == circuit


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(Circuit)]
                         + ["wire", "expanded"])
def test_circuit_fields_cannot_be_assigned(name):
    # a register or segment set after construction would skip validation,
    # and a derived attribute set by hand could disagree with the fields
    circuit = parse_circuit(CANONICAL)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(circuit, name, getattr(circuit, name))


def test_circuit_that_would_serialize_unparseable_text_is_rejected():
    with pytest.raises(ValueError):
        Circuit(3, [PhaseShifter(0, 0.1)],
                sources=[SepSource(0, 0.0), SepSource(5, 0.0)],
                detectors=[7], registers=[("r", (0, 9))])


def test_macro_table_drives_arity_usage_and_expansion():
    from flyqsim.gates import MACROS

    assert sorted(MACROS) == ["fredkin", "hadamard"]
    for name, (params, _) in MACROS.items():
        rails = tuple(range(len(params)))
        assert CompositeGate(name, rails).rails == rails
        with pytest.raises(ValueError, match="takes"):
            CompositeGate(name, rails + (len(params),))
        usage = " ".join([name] + [f"<{p}>" for p in params])
        result = parse(f"rails 4\n{name}\n")
        assert [d.message for d in result.diagnostics] == [f"usage: {usage}"]


def test_macro_synthesis_is_the_macro_table_entry_on_its_rails():
    from flyqsim.gates import macro_elements

    synthesis = fredkin_circuit(0, (1, 2))
    assert list(macro_elements("fredkin", (0, 1, 2))) == synthesis
    circuit = parse_circuit("rails 3\nfredkin q0 q1 q2\nhadamard q1 q2\nfredkin q0 q1 q2\n")
    expanded = expand_composites(circuit)
    assert list(expanded.elements[:6]) == synthesis
    assert list(expanded.elements[9:]) == synthesis
    assert expanded.elements[6:9] == tuple(logical_hadamard((1, 2)))
