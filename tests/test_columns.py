"""The compiled form: a circuit held once as columns, read by every stage.

A canonical netlist is parsed and run without building one gate element or
``Segment``; a hand-built circuit and the parse of its canonical text hold
the same columns, so they compare, hash and report alike; and the column
check that stands behind the parser's inline reads refuses exactly what the
general word helpers refuse, with their diagnostics.
"""

import importlib.util
import io
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import corpus
from flyqsim import cli, fock, gates, netlist
from flyqsim.cli import EXIT_OK, RunConfig
from flyqsim.gates import (CompositeGate, CoulombCoupler, PhaseShifter,
                           WaveguideCoupler)
from flyqsim.netlist import (Circuit, ParseResult, Segment, parse,
                             parse_circuit, serialize)
from flyqsim.timing import DephasingModel, SepSource

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
CONSTRUCTED = {PhaseShifter: "__init__", WaveguideCoupler: "__init__",
               CoulombCoupler: "__init__", CompositeGate: "__init__",
               Segment: "__new__"}


def long_netlist_text(blocks=333):
    """The long netlist of the CI workflow: pumps on every even rail, then
    per block wire on every rail, a ps, a bs, a cc and a hadamard."""
    lines = ["rails 8"]
    for r in range(0, 8, 2):
        lines += [f"sep q{r} delay=0ps", f"sep q{r + 1} delay=0ps empty"]
    for b in range(blocks):
        lines += [f"segment q{r} 0.02um" for r in range(8)]
        a, c, h = b % 7, (b + 3) % 7, (b + 5) % 7
        lines += [f"ps q{b % 8} phi=0.3rad",
                  f"bs q{a} q{a + 1} lc=0.1um lt=0.28um",
                  f"cc q{c} q{c + 1} chit=0.4rad", f"hadamard q{h} q{h + 1}"]
    lines += [f"set q{r}" for r in range(8)]
    return "\n".join(lines) + "\n"


def long_netlist_circuit(blocks=333):
    """The same circuit built by hand."""
    elements, segments = [], []
    for b in range(blocks):
        segments += [Segment(r, 0.02, len(elements)) for r in range(8)]
        a, c, h = b % 7, (b + 3) % 7, (b + 5) % 7
        elements += [PhaseShifter(b % 8, 0.3),
                     WaveguideCoupler((a, a + 1), 0.1, 0.28),
                     CoulombCoupler((c, c + 1), 0.4),
                     CompositeGate("hadamard", (h, h + 1))]
    sources = [SepSource(r, 0.0, emits=r % 2 == 0) for r in range(8)]
    return Circuit(8, elements, segments, sources, detectors=range(8))


def test_a_canonical_long_netlist_is_parsed_and_run_without_element_objects(
        tmp_path, monkeypatch):
    text = long_netlist_text()
    path = tmp_path / "long.fq"
    path.write_text(text)
    calls = []
    for cls, name in CONSTRUCTED.items():
        original = getattr(cls, name)

        def counted(*args, original=original, cls=cls, **kwargs):
            calls.append(cls.__name__)
            return original(*args, **kwargs)

        monkeypatch.setattr(cls, name, counted)
    for output_format in ("machine", "human"):
        config = RunConfig(str(path), shots=500, seed=3,
                           dephasing_mode="factor", output_format=output_format)
        assert cli.run(config, out=io.StringIO()) == EXIT_OK
    circuit = parse(text).circuit
    expanded = circuit.expanded
    result = cli.timing_mod.run_shots(expanded, 500, master_seed=3,
                                      dephasing=DephasingModel(30.0, "factor"))
    report = cli.budget_mod.analyze(expanded)
    assert calls == []
    assert result.n_shots == 500 and len(report.per_rail_length) == 8
    for derived in ("elements", "segments", "wire"):
        assert derived not in vars(circuit) and derived not in vars(expanded)
    monkeypatch.undo()
    hand_built = long_netlist_circuit()
    assert circuit.elements == hand_built.elements
    assert circuit.segments == hand_built.segments
    assert circuit.expanded.elements == hand_built.expanded.elements


def _corpus_circuits():
    rng = np.random.default_rng(2024)
    build = [corpus.random_roundtrip_circuit, corpus.random_runnable_circuit,
             corpus.random_dephased_circuit]
    return [(f"{f.__name__}-{i}", f(rng)) for f in build for i in range(12)]


def _long_netlist_workload():
    """The benchmark's hand-built ``long_netlist`` circuit at seed 3."""
    workloads = sys.modules.get("perfbench_workloads")
    if workloads is None:  # its dataclasses look their module up by name
        spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                      WORKLOADS)
        workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
    return workloads.long_netlist(3).circuit


def _report(circuit, tmp_path, monkeypatch, mode, output_format):
    """``cli.run``'s report of ``circuit``, which its parse returns."""
    path = tmp_path / "circuit.fq"
    path.write_text("")
    out = io.StringIO()
    with monkeypatch.context() as patch:
        patch.setattr(cli.netlist_mod, "parse",
                      lambda text: ParseResult(circuit, []))
        config = RunConfig(str(path), shots=300, seed=5, dephasing_mode=mode,
                           output_format=output_format, allow_desync=True)
        code = cli.run(config, out=out)
    return code, out.getvalue()


@pytest.mark.parametrize("name", [name for name, _ in _corpus_circuits()]
                         + ["long_netlist"])
def test_a_hand_built_circuit_and_the_parse_of_its_text_agree(
        name, tmp_path, monkeypatch):
    circuit = (_long_netlist_workload() if name == "long_netlist"
               else dict(_corpus_circuits())[name])
    parsed = parse(serialize(circuit)).circuit
    assert parsed.elements == circuit.elements
    assert parsed.segments == circuit.segments
    assert parsed.wire == circuit.wire
    assert parsed.expanded.elements == circuit.expanded.elements
    assert parsed.expanded.segments == circuit.expanded.segments
    assert parsed.expanded.wire == circuit.expanded.wire
    assert parsed == circuit and hash(parsed) == hash(circuit)
    # the parser admits nothing the constructor refuses
    assert Circuit(parsed.n_rails, parsed.elements, parsed.segments, parsed.sources,
                   parsed.detectors, parsed.registers) == parsed
    assert parsed.expanded == circuit.expanded
    assert hash(parsed.expanded) == hash(circuit.expanded)
    for mode in ("off", "factor", "mc"):
        for output_format in ("machine", "human"):
            assert (_report(parsed, tmp_path, monkeypatch, mode, output_format)
                    == _report(circuit, tmp_path, monkeypatch, mode,
                               output_format))


def test_a_signed_zero_compares_and_hashes_as_zero():
    plus = Circuit(2, [PhaseShifter(0, 0.0)], [Segment(1, 0.0, 0)])
    minus = Circuit(2, [PhaseShifter(0, -0.0)], [Segment(1, -0.0, 0)])
    assert plus == minus and hash(plus) == hash(minus)
    assert serialize(minus) != serialize(plus)


# --- the column check against the general word helpers ----------------------

# one bad field each on a canonical line of a 4-rail netlist: the diagnostic
# the general path writes, as the parser wrote it before the column check
REFUSED = [
    ("ps q9 phi=1.0rad", 4, "rail q9 out of range (rails 4)"),
    ("bs q0 q9 lc=0.1um lt=0.28um", 7, "rail q9 out of range (rails 4)"),
    ("cc q9 q1 chit=0.4rad", 4, "rail q9 out of range (rails 4)"),
    ("segment q9 1.0um", 9, "rail q9 out of range (rails 4)"),
    ("fredkin q0 q1 q9", 15, "rail q9 out of range (rails 4)"),
    ("bs q1 q1 lc=0.1um lt=0.28um", 7, "coupler rails must be distinct"),
    ("cc q2 q2 chit=0.4rad", 7, "coupler rails must be distinct"),
    ("hadamard q1 q1", 10, "macro rails must be distinct"),
    ("fredkin q0 q1 q0", 9, "macro rails must be distinct"),
    ("ps q0 phi=nanrad", 7, "invalid number 'nan' in phi"),
    ("ps q0 phi=infrad", 7, "invalid number 'inf' in phi"),
    ("ps q0 phi=1e400rad", 7, "phi must be finite"),
    ("segment q0 nanum", 12, "invalid number 'nan' in segment length"),
    ("segment q0 infum", 12, "invalid number 'inf' in segment length"),
    ("segment q0 1e400um", 12, "segment length must be finite"),
    ("bs q0 q1 lc=1e400um lt=0.28um", 10, "lc must be finite"),
    ("bs q0 q1 lc=0.1um lt=infum", 19, "invalid number 'inf' in lt"),
    ("cc q0 q1 chit=nanrad", 10, "invalid number 'nan' in chit"),
    ("cc q0 q1 chit=-infrad", 10, "invalid number '-inf' in chit"),
    ("segment q0 -1.0um", 12, "segment length must be >= 0"),
    ("bs q0 q1 lc=-0.1um lt=0.28um", 10, "lc must be >= 0"),
    ("bs q0 q1 lc=0.1um lt=0.0um", 19, "lt must be > 0"),
    ("bs q0 q1 lc=0.1um lt=-0.0um", 19, "lt must be > 0"),
    ("ps q0 phi=1_0rad", 7, "invalid number '1_0' in phi"),
    ("segment q0 1_0um", 12, "invalid number '1_0' in segment length"),
    ("cc q0 q1 chit=0_1rad", 10, "invalid number '0_1' in chit"),
    ("bs q0 q1 lc=0.1um lt=0.2_8um", 19, "invalid number '0.2_8' in lt"),
    ("ps q0 phi=0.5rad len=-1.0um", 18, "len must be >= 0"),
    ("ps q0 phi=0.5rad len=nanum", 18, "invalid number 'nan' in len"),
]


@pytest.mark.parametrize("line, column, message", REFUSED,
                         ids=[line for line, _, _ in REFUSED])
def test_a_refused_canonical_line_keeps_its_diagnostic(line, column, message):
    result = parse(f"rails 4\nsep q0 delay=0ps\n{line}\nset q0\n")
    assert not result.ok
    assert [(d.line, d.column, d.message, d.severity)
            for d in result.diagnostics] == [(3, column, message, "error")]


def test_a_remembered_length_word_is_read_in_its_own_field_only():
    # the line loop reads each distinct wire or transfer length word once;
    # a word it remembers from one field is still refused in the other
    text = ("rails 2\nsep q0 delay=0ps\nbs q0 q1 lc=0.1um lt=0.28um\n"
            "segment q0 lt=0.28um\nsegment q1 0.5um\nbs q0 q1 lc=0.1um 0.5um\nset q0\n")
    assert [(d.line, d.column, d.message) for d in parse(text).diagnostics] == [
        (4, 12, "invalid number 'lt=0.28' in segment length"),
        (6, 19, "expected lt=<value>um, got '0.5um'")]


def test_refused_rows_among_other_diagnostics_keep_the_line_order():
    text = ("rails 4\nsep q0 delay=0ps\nsegment q0 -1.0um\nps q0 PHI=1rad len=-1um\n"
            "bs q1 q1 lc=0.1um lt=0.28um\nset q0\nset q0\ncc q0 q1 chit=1e400rad\n"
            "segment q2 0.5um\nhadamard q3 q3\n")
    assert [(d.line, d.column, d.message, d.severity)
            for d in parse(text).diagnostics] == [
        (3, 12, "segment length must be >= 0", "error"),
        (4, 16, "len must be >= 0", "error"),
        (5, 7, "coupler rails must be distinct", "error"),
        (7, 5, "duplicate detector on rail q0", "warning"),
        (8, 10, "chit must be finite", "error"),
        (10, 10, "macro rails must be distinct", "error"),
    ]


@pytest.mark.parametrize("line, value", [
    ("segment q0 -0.0um", lambda c: c.segments[0].length),
    ("ps q0 phi=-0.0rad", lambda c: c.elements[0].phi),
    ("bs q0 q1 lc=-0.0um lt=0.28um", lambda c: c.elements[0].coupling_length),
    ("cc q0 q1 chit=-0.0rad", lambda c: c.elements[0].chi_t),
    ("ps q0 phi=0.5rad len=-0.0um", lambda c: c.elements[0].length),
], ids=["segment", "ps", "bs", "cc", "len"])
def test_negative_zero_is_accepted_and_round_trips_with_its_sign(line, value):
    text = f"rails 4\n{line}\n"
    result = parse(text)
    assert result.ok and result.diagnostics == []
    assert math.copysign(1.0, value(result.circuit)) == -1.0
    assert serialize(result.circuit) == text
    assert parse_circuit(serialize(result.circuit)) == result.circuit


def test_a_hand_built_rail_out_of_range_is_refused_by_the_column_check():
    columns = gates.ElementColumns.of([PhaseShifter(0, 0.1),
                                       WaveguideCoupler((1, 3), 0.1)])
    assert columns.refused(3).tolist() == [False, True]
    with pytest.raises(ValueError, match=r"^element 1 \(bs\) rail 3 outside "
                                         r"\[0, 3\)$"):
        Circuit(3, list(columns))
    assert netlist._refused(3, columns, netlist._wire_columns(
        [0, 1.0, 0, 3, 1.0, 1, 0, -1.0, 2, 0, 1.0, 3]))[1].tolist() == [
        False, True, True, True]


HUGE = 10**400  # past the float range


@pytest.mark.parametrize("build, message", [
    (lambda: Circuit(2, [PhaseShifter(HUGE, 0.1)]),
     rf"^element 0 \(ps\) rail {HUGE} outside \[0, 2\)$"),
    (lambda: Circuit(2, [WaveguideCoupler((0, -HUGE), 0.1)]),
     rf"^element 0 \(bs\) rail -{HUGE} outside \[0, 2\)$"),
    (lambda: Circuit(2, segments=[Segment(0, 1.0, HUGE)]),
     rf"^segment position {HUGE} outside \[0, 0\]: "
     rf"Segment\(rail=0, length=1.0, position={HUGE}\)$"),
    (lambda: Circuit(2, segments=[(-HUGE, 1.0, 0)]),
     rf"^segment rail -{HUGE} outside \[0, 2\): "
     rf"Segment\(rail=-{HUGE}, length=1.0, position=0\)$"),
], ids=["ps rail", "bs rail", "segment position", "segment rail"])
def test_an_integer_past_the_float_range_is_refused_as_out_of_range(
        build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_apply_stretch_refuses_a_rail_past_the_float_range():
    # the columns clip it to 2**62, which the rail check names
    with pytest.raises(ValueError, match=f"rail index {2**62} out of range"):
        gates.apply_stretch(np.zeros(2, complex), 2,
                            [PhaseShifter(HUGE, 0.1)], fock.sector_block(2, 1))


@pytest.mark.parametrize("name", [name for name, _ in _corpus_circuits()])
def test_the_columns_state_each_elements_footprint_and_end_rails(name):
    circuit = dict(_corpus_circuits())[name].expanded
    columns = circuit.columns
    elements = circuit.elements
    assert columns.footprints().tolist() == [e.footprint for e in elements]
    assert columns.end_rails().tolist() == [[e.rails[0] for e in elements],
                                            [e.rails[-1] for e in elements]]
    assert columns.kinds.tolist() == [gates.KEYWORDS.index(e.keyword)
                                      for e in elements]
