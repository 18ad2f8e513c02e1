"""Targeted invariants: parser totality, coupler algebra, sign consistency."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flyqsim.fock import sample_counts
from flyqsim.gates import PhaseShifter, build_dense_unitary, coupler_matrix
from flyqsim.netlist import Circuit, Segment, parse, parse_circuit, serialize
from flyqsim.timing import SepSource

import corpus
import oracles
import sectors

SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])


@settings(max_examples=300, deadline=None)
@given(st.text())
def test_parser_never_raises_on_text(text):
    result = parse(text)
    assert result.ok or result.errors()


@settings(max_examples=300, deadline=None)
@given(st.binary())
def test_parser_never_raises_on_bytes(raw):
    parse(raw.decode("utf-8", errors="replace"))


@settings(max_examples=200, deadline=None)
@given(st.floats(0.0, 5.0), st.floats(0.0, 5.0), st.floats(0.01, 5.0))
def test_coupler_interaction_length_additive(la, lb, lt):
    combined = coupler_matrix(la, lt) @ coupler_matrix(lb, lt)
    assert np.allclose(combined, coupler_matrix(la + lb, lt), atol=1e-10)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_roundtrip_random_circuit(seed):
    rng = np.random.default_rng(seed)
    circuit = corpus.random_roundtrip_circuit(rng)
    assert parse_circuit(serialize(circuit)) == circuit


def sometimes_bad(good, bad):
    """Draws from ``good``, and from ``bad`` about one time in eight."""
    return st.integers(0, 7).flatmap(lambda k: bad if k == 3 else good)


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_hand_built_circuit_is_rejected_or_round_trips(data):
    # past the capacity on either side, or a count a netlist cannot spell
    n_rails = data.draw(sometimes_bad(st.integers(1, 24),
                                      st.sampled_from([0, 25, 2.0, True])))
    # small rail counts repeat rails often: in sources, detectors and registers
    top = max(1, int(n_rails))
    not_an_index = st.sampled_from([0.0, 0.5, 1.0, True, False])
    rail = sometimes_bad(st.integers(0, top - 1),
                         st.sampled_from([-1, top]) | not_an_index)
    value = sometimes_bad(st.floats(0.0, 1e3), st.floats())  # NaN, +-inf, < 0
    element_rails = data.draw(st.lists(rail, max_size=3))
    position = sometimes_bad(st.integers(0, len(element_rails)),
                             st.sampled_from([-1, len(element_rails) + 1])
                             | not_an_index)
    segments = data.draw(st.lists(st.tuples(rail, value, position), max_size=4))
    sources = data.draw(st.lists(st.tuples(rail, value, st.booleans()),
                                 max_size=3))
    detectors = data.draw(st.lists(rail, max_size=4))
    registers = data.draw(st.lists(st.tuples(
        st.sampled_from(["a", "b"]), st.tuples(rail, rail)), max_size=2))
    try:
        circuit = Circuit(n_rails, [PhaseShifter(r, 0.5) for r in element_rails],
                          segments=[Segment(*s) for s in segments],
                          sources=[SepSource(*s) for s in sources],
                          detectors=detectors, registers=registers)
    except ValueError:
        return
    result = parse(serialize(circuit))
    assert result.ok, result.errors()
    assert result.circuit == circuit


weights = st.just(0.0) | st.floats(0.0, 1.0)
uniform = st.sampled_from([0.0, 1.0 - 2.0 ** -53]) | st.floats(
    0.0, 1.0, exclude_max=True)


@st.composite
def probability_vector(draw):
    """Weights with zeros anywhere (leading, interior, trailing), all of
    them zero now and then, or all the mass on one mask."""
    d = draw(st.integers(1, 12))
    if draw(st.booleans()):
        return np.array(draw(st.lists(weights, min_size=d, max_size=d)))
    one_hot = np.zeros(d)
    one_hot[draw(st.integers(0, d - 1))] = draw(st.floats(1e-300, 1.0))
    return one_hot


@pytest.mark.parametrize("draws", ["fewer", "as many", "more"])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_sample_counts_match_scalar_readout(draws, data):
    # d positions against N draws: fewer draws than positions (d > N), as
    # many (d == N) or more (d < N); the shapes pick the search direction
    probabilities = data.draw(probability_vector())
    d = probabilities.size
    if draws == "fewer":
        n = data.draw(st.integers(0, d - 1))
    elif draws == "more":
        n = data.draw(st.integers(d + 1, 3 * d + 4))
    else:
        n = d
    uniforms = np.array(data.draw(st.lists(uniform, min_size=n, max_size=n)))
    cumulative = np.cumsum(probabilities)
    counts = np.zeros(d, dtype=np.intp)
    if not cumulative[-1] > 0.0:
        with pytest.raises(ValueError, match="all-zero"):
            sample_counts(cumulative, uniforms, counts)
        return
    sample_counts(cumulative, uniforms, counts)
    expected = np.bincount(np.array(oracles.oracle_masks(probabilities, uniforms),
                                    dtype=np.int64), minlength=d)
    assert counts.tolist() == expected.tolist()


def relabel_to_adjacent(vec, n_rails, rail_from, rail_to):
    """Move a rail next to another with explicit adjacent mode swaps."""
    step = 1 if rail_to > rail_from else -1
    for rail in range(rail_from, rail_to, step):
        vec = sectors.evolve_mode_unitary(vec, n_rails, (rail, rail + step), SWAP)
    return vec


@pytest.mark.parametrize("rails", [(0, 2), (0, 3), (1, 3), (3, 0)])
def test_jordan_wigner_swap_relabel_consistency(rails):
    # applying a coupler to distant rails equals relabeling them adjacent
    # first, applying it there, and relabeling back
    n_rails = 4
    rng = np.random.default_rng(hash(rails) % (2 ** 31))
    vec = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    vec /= np.linalg.norm(vec)
    u = coupler_matrix(0.19, 0.28)

    direct = sectors.evolve_mode_unitary(vec, n_rails, rails, u)

    lo, hi = min(rails), max(rails)
    moved = relabel_to_adjacent(vec, n_rails, hi, lo + 1)
    pair = (lo, lo + 1) if rails[0] == lo else (lo + 1, lo)
    moved = sectors.evolve_mode_unitary(moved, n_rails, pair, u)
    moved = relabel_to_adjacent(moved, n_rails, lo + 1, hi)

    assert np.allclose(direct, moved, atol=1e-10)


def test_number_sector_conservation_random_gates():
    rng = np.random.default_rng(99)
    for _ in range(50):
        circuit = corpus.random_runnable_circuit(rng, max_rails=5, max_gates=12)
        n = circuit.n_rails
        vec = corpus.random_state_vector(rng, n)
        popcounts = np.bitwise_count(np.arange(1 << n))
        before = [np.sum(np.abs(vec[popcounts == k]) ** 2) for k in range(n + 1)]
        # the engine evolves each sector on its own; the dense oracle's
        # matrices must not move weight between sectors either
        state = sectors.evolve(vec, n, circuit.elements)
        dense = vec
        for element in circuit.elements:
            dense = build_dense_unitary(element, n) @ dense
        for out in (state, dense):
            after = [np.sum(np.abs(out[popcounts == k]) ** 2)
                     for k in range(n + 1)]
            assert np.allclose(before, after, atol=1e-10)
