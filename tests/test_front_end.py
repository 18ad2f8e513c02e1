"""The one-pass front end against its oracles.

``Circuit.expanded`` derives the expanded circuit from the validated one,
for a parsed circuit and for a hand-built one.  Both must equal the plain
expansion of ``oracles.expand_composites`` (every segment rebuilt, the
result validated again), and ``rail_path_lengths`` must equal the scalar
loop of ``oracles.rail_path_lengths`` exactly.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flyqsim.budget import rail_path_lengths
from flyqsim.gates import fredkin_circuit, logical_hadamard
from flyqsim.netlist import expand_composites, parse, serialize

import corpus
import oracles


def assert_same_expansion(got, expected):
    assert got.elements == expected.elements
    assert got.segments == expected.segments
    assert got.wire == expected.wire
    assert got == expected
    assert got.registers == expected.registers


def check_front_end(circuit):
    """``circuit`` round-trips, and both expansions and the budget agree with
    the oracles."""
    result = parse(serialize(circuit))
    assert result.ok, result.errors()
    assert result.circuit == circuit
    expected = oracles.expand_composites(circuit)
    assert_same_expansion(result.circuit.expanded, expected)
    assert_same_expansion(expand_composites(circuit), expected)
    assert rail_path_lengths(result.circuit) == oracles.rail_path_lengths(circuit)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_corpus_circuits_match_the_oracles(seed):
    rng = np.random.default_rng(seed)
    check_front_end(corpus.random_roundtrip_circuit(rng))
    check_front_end(corpus.random_dephased_circuit(rng))


# --- netlist text with macros and wire ------------------------------------

LENGTH = st.floats(0.0, 50.0).map(repr)
ANGLE = st.floats(-10.0, 10.0).map(repr)


@st.composite
def netlists(draw):
    """A valid netlist of 3 to 8 rails: pumps, then wire, primitives and
    macros in any order, some written in the spellings the parser reads on
    its slower branch (upper case, non-canonical rails, comments)."""
    n_rails = draw(st.integers(3, 8))
    rails = st.lists(st.integers(0, n_rails - 1), min_size=3, max_size=3,
                     unique=True)

    def q(rail):
        return draw(st.sampled_from([f"q{rail}", f"q0{rail}"]))

    def footprint():
        return draw(st.sampled_from(["", f" len={draw(LENGTH)}um"]))

    spell = {
        "segment": lambda a, b, c: (
            f"segment {q(a)} {draw(LENGTH)}{draw(st.sampled_from(['um', 'UM']))}"),
        "ps": lambda a, b, c: f"ps {q(a)} phi={draw(ANGLE)}rad{footprint()}",
        "bs": lambda a, b, c: (
            f"BS {q(a)} {q(b)} LC={draw(LENGTH)}um lt=0.28um{footprint()}"),
        "cc": lambda a, b, c: (
            f"cc {q(a)} {q(b)} chit={draw(ANGLE)}RAD{footprint()}"),
        "hadamard": lambda a, b, c: f"hadamard {q(a)} {q(b)}",
        "fredkin": lambda a, b, c: f"Fredkin {q(a)} {q(b)} {q(c)}  # a macro",
        "comment": lambda a, b, c: "# wire and gates follow",
    }
    lines = [f"rails {n_rails}"]
    lines += [f"sep q{r} delay={draw(LENGTH)}ps" for r in range(n_rails)]
    for kind in draw(st.lists(st.sampled_from(
            ["segment", "segment", "ps", "bs", "cc", "hadamard", "fredkin",
             "comment"]), max_size=40)):
        lines.append(spell[kind](*draw(rails)))
    lines += [f"set q{r}" for r in range(n_rails)]
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(netlists())
def test_netlists_with_macros_and_wire_match_the_oracles(text):
    result = parse(text)
    assert result.ok, result.errors()
    expected = oracles.expand_composites(result.circuit)
    assert_same_expansion(result.circuit.expanded, expected)
    assert rail_path_lengths(result.circuit) == oracles.rail_path_lengths(expected)
    check_front_end(result.circuit)


def test_expanded_circuit_is_what_the_constructor_builds():
    # derived without a second validation walk, it still holds exactly what
    # a validating constructor makes of the same fields
    text = ("rails 4\nsep q0 delay=0ps\nsegment q0 1um\nhadamard q0 q1\n"
            "segment q1 2um\nsegment q2 0.5um\nfredkin q0 q2 q3\n"
            "segment q3 3um\ndualrail a q0 q1\nset q0\n")
    expanded = parse(text).circuit.expanded
    rebuilt = dataclasses.replace(expanded)
    assert_same_expansion(expanded, rebuilt)
    assert expanded.wire[-1] == rebuilt.wire[-1] != ()
    # it records no macro: its own primitive form is itself
    assert expanded.expanded is expanded
    assert rebuilt.expanded is rebuilt


def test_expanded_is_the_circuit_without_macros_and_none_on_errors():
    result = parse("rails 2\nsep q0 delay=0ps\nsegment q0 1um\nps q0 phi=1rad\n")
    assert result.circuit.expanded is result.circuit
    result = parse("rails 2\nhadamard q0 q0\n")
    assert not result.ok
    assert result.circuit is None
    assert [f.name for f in dataclasses.fields(result)] == ["circuit", "diagnostics"]


def test_repeated_macro_lines_expand_to_equal_primitives():
    result = parse("rails 3\nhadamard q0 q1\nfredkin q0 q1 q2\nhadamard q0 q1\n")
    expanded = result.circuit.expanded
    first, again = expanded.elements[:3], expanded.elements[9:]
    assert list(first) == list(again) == logical_hadamard((0, 1))
    assert list(expanded.elements[3:9]) == fredkin_circuit(0, (1, 2))


@pytest.mark.parametrize("build", [corpus.random_runnable_circuit,
                                   corpus.random_dephased_circuit])
def test_budget_is_the_scalar_loop_bit_for_bit(build):
    rng = np.random.default_rng(11)
    for _ in range(50):
        circuit = build(rng)
        assert rail_path_lengths(circuit) == oracles.rail_path_lengths(circuit)
