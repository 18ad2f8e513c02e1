"""A circuit's primitive form, ``Circuit.expanded``.

It is derived once, on first use, and holds no reference back to its
circuit.  Every stage reads it, so a hand-built circuit with macros behaves
as its expansion: in the schedule check, the sampler, the budget and the
command line, which parses the same macros back from the netlist text.
"""

import dataclasses
import gc
import io
import weakref

import pytest

from flyqsim.budget import analyze
from flyqsim.cli import EXIT_OK, RunConfig, run
from flyqsim.gates import CompositeGate, CoulombCoupler, PhaseShifter
from flyqsim.netlist import Circuit, Segment, parse_circuit, serialize
from flyqsim.timing import SepSource, arrival_times, check_coincidence, run_shots

MACRO_TEXT = """\
rails 4
sep q0 delay=0ps
sep q1 delay=0ps
sep q2 delay=0ps empty
sep q3 delay=0ps
segment q1 1um
hadamard q0 q1
fredkin q3 q1 q2
segment q2 2um
"""
PLAIN_TEXT = "rails 2\nsep q0 delay=0ps\nsegment q0 1um\nps q0 phi=1rad\n"


def test_expanded_is_derived_once_and_kept():
    circuit = parse_circuit(MACRO_TEXT)
    expanded = circuit.expanded
    assert expanded is circuit.expanded
    assert expanded != circuit
    assert not any(isinstance(e, CompositeGate) for e in expanded.elements)
    # the derived circuit records no macro
    assert expanded.expanded is expanded
    assert dataclasses.replace(circuit).expanded == expanded
    plain = parse_circuit(PLAIN_TEXT)
    stored = set(vars(plain))
    assert plain.expanded is plain
    assert set(vars(plain)) == stored


@pytest.mark.parametrize("text", [MACRO_TEXT, PLAIN_TEXT], ids=["macros", "plain"])
def test_a_circuit_and_its_expansion_are_freed_without_the_collector(text):
    # a reference cycle would keep both alive until a full collection
    gc.disable()
    try:
        circuit = parse_circuit(text)
        expanded = circuit.expanded
        assert expanded.expanded is expanded  # as each stage reads it again
        refs = weakref.ref(circuit), weakref.ref(expanded)
        del circuit, expanded
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


def fredkin_circuit(t0_delay, t1_delay):
    """A controlled swap with a Coulomb coupler to the control after it;
    the target pair is a dual-rail register."""
    return Circuit(
        n_rails=4,
        elements=[CompositeGate("fredkin", (0, 1, 2)), PhaseShifter(3, 0.4),
                  CoulombCoupler((3, 0), 0.7)],
        sources=[SepSource(0, 0.0), SepSource(1, t0_delay),
                 SepSource(2, t1_delay, emits=False), SepSource(3, 0.0)],
        detectors=[0, 1, 2, 3],
        registers=[("t", (1, 2))],
    )


def hadamard_pairs():
    """Two dual-rail qubits through Hadamards, wire and a Coulomb coupler."""
    return Circuit(
        n_rails=4,
        elements=[CompositeGate("hadamard", (0, 1)), PhaseShifter(1, 0.3),
                  CompositeGate("hadamard", (2, 3)), CoulombCoupler((1, 2), 0.9),
                  CompositeGate("hadamard", (2, 3))],
        segments=[Segment(0, 0.5, 0), Segment(1, 0.5, 0), Segment(3, 1.0, 2),
                  Segment(2, 1.0, 2), Segment(1, 1.0, 5)],
        sources=[SepSource(0, 5.0), SepSource(1, 5.0, emits=False),
                 SepSource(2, 0.0, emits=False), SepSource(3, 0.0)],
        detectors=[0, 1, 2, 3],
        registers=[("a", (0, 1)), ("b", (2, 3))],
    )


CASES = {
    # control and t1 arrive 1.2 ps apart, past the 1 ps window, but no
    # primitive couples them: control/t0 and t0/t1 are 0.6 ps apart
    "fredkin control and t1 apart": (lambda: fredkin_circuit(0.6, 1.2), False),
    # control and t0 meet in the fredkin's Coulomb coupler 2 ps apart
    "fredkin control and t0 apart": (lambda: fredkin_circuit(2.0, 2.0), True),
    "hadamard pairs": (hadamard_pairs, False),
}


def machine_report(text):
    """The violations, counts by mask, logical counts and budget lengths of
    a machine-format report."""
    violations, counts, logical, rails = [], {}, {}, []
    for line in text.splitlines():
        kind, _, rest = line.partition(" ")
        if line.startswith("coincidence violation: "):
            violations.append(line.removeprefix("coincidence violation: "))
        elif kind == "count":
            bits, count = rest.split()
            counts[int(bits[::-1], 2)] = int(count)  # q0 leftmost
        elif kind == "logical":
            key, count = rest.split()
            logical[key] = int(count)
        elif kind == "budget_rail_um":
            rails.append(float(rest.split()[1]))
    return violations, counts, logical, tuple(rails)


@pytest.mark.parametrize("build, late", CASES.values(), ids=CASES.keys())
def test_macro_circuit_behaves_as_its_expansion(build, late, tmp_path):
    circuit = build()
    expanded = circuit.expanded
    assert expanded != circuit

    violations = check_coincidence(arrival_times(circuit), 1.0)
    assert violations == check_coincidence(arrival_times(expanded), 1.0)
    assert bool(violations) == late
    result = run_shots(circuit, 3000, master_seed=11, allow_desync=True)
    assert result == run_shots(expanded, 3000, master_seed=11,
                               allow_desync=True)
    assert result.violations == violations
    report = analyze(circuit)
    assert report == analyze(expanded)

    path = tmp_path / "macros.fq"
    path.write_text(serialize(circuit))
    out = io.StringIO()
    config = RunConfig(str(path), shots=3000, seed=11, window=1.0,
                       output_format="machine", allow_desync=True)
    assert run(config, out=out) == EXIT_OK
    assert machine_report(out.getvalue()) == (
        [str(v) for v in violations], result.counts, result.logical_counts,
        report.per_rail_length)
