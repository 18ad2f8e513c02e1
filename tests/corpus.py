"""Seeded random-circuit generators shared by the property and acceptance suites."""

import math

import numpy as np

from flyqsim.gates import (
    CompositeGate,
    CoulombCoupler,
    PhaseShifter,
    WaveguideCoupler,
)
from flyqsim.netlist import Circuit, Segment
from flyqsim.timing import SepSource


def random_primitive(rng, n_rails):
    kind = int(rng.integers(0, 3)) if n_rails >= 2 else 0
    if kind == 0:
        return PhaseShifter(int(rng.integers(n_rails)),
                            float(rng.uniform(-2 * math.pi, 2 * math.pi)))
    rails = tuple(int(r) for r in rng.choice(n_rails, size=2, replace=False))
    if kind == 1:
        return WaveguideCoupler(rails,
                                coupling_length=float(rng.uniform(0.0, 0.6)),
                                transfer_length=float(rng.uniform(0.1, 0.5)))
    return CoulombCoupler(rails, chi_t=float(rng.uniform(-math.pi, math.pi)))


def random_gate_list(rng, n_rails, max_gates=20):
    return [random_primitive(rng, n_rails)
            for _ in range(int(rng.integers(1, max_gates + 1)))]


def random_state_vector(rng, n_rails):
    dim = 1 << n_rails
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return vec / np.linalg.norm(vec)


def random_roundtrip_circuit(rng) -> Circuit:
    """Valid circuit exercising the whole grammar, macros included."""
    n_rails = int(rng.integers(1, 9))
    elements = []
    n_elements = int(rng.integers(0, 8))
    for _ in range(n_elements):
        pick = rng.random()
        if pick < 0.7 or n_rails < 2:
            elem = random_primitive(rng, n_rails)
            if rng.random() < 0.25:
                # exercise the explicit footprint attribute
                if isinstance(elem, PhaseShifter):
                    elem = PhaseShifter(elem.rail, elem.phi,
                                        length=float(rng.uniform(0, 2)))
                elif isinstance(elem, WaveguideCoupler):
                    elem = WaveguideCoupler(elem.rails, elem.coupling_length,
                                            elem.transfer_length,
                                            length=float(rng.uniform(0, 2)))
                else:
                    elem = CoulombCoupler(elem.rails, elem.chi_t,
                                          length=float(rng.uniform(0, 2)))
            elements.append(elem)
        elif pick < 0.85 and n_rails >= 2:
            rails = tuple(int(r) for r in rng.choice(n_rails, 2, replace=False))
            elements.append(CompositeGate("hadamard", rails))
        elif n_rails >= 3:
            rails = tuple(int(r) for r in rng.choice(n_rails, 3, replace=False))
            elements.append(CompositeGate("fredkin", rails))
        else:
            elements.append(random_primitive(rng, n_rails))

    segments = [Segment(int(rng.integers(n_rails)),
                        float(rng.uniform(0.0, 40.0)),
                        int(rng.integers(0, len(elements) + 1)))
                for _ in range(int(rng.integers(0, 6)))]

    source_rails = [int(r) for r in
                    rng.choice(n_rails, size=int(rng.integers(0, n_rails + 1)),
                               replace=False)]
    sources = [SepSource(r, float(rng.uniform(0.0, 50.0)),
                         emits=bool(rng.random() < 0.8))
               for r in source_rails]

    detectors = [int(r) for r in
                 rng.choice(n_rails, size=int(rng.integers(0, n_rails + 1)),
                            replace=False)]

    registers = []
    if n_rails >= 2 and rng.random() < 0.4:
        free = list(rng.permutation(n_rails))
        n_regs = int(rng.integers(1, len(free) // 2 + 1))
        for k in range(n_regs):
            registers.append((f"r{k}", (int(free[2 * k]), int(free[2 * k + 1]))))

    return Circuit(n_rails=n_rails, elements=elements, segments=segments,
                   sources=sources, detectors=detectors, registers=registers)


def random_runnable_circuit(rng, max_rails=6, max_gates=20) -> Circuit:
    """Primitive-only circuit with every rail sourced; always schedulable."""
    n_rails = int(rng.integers(2, max_rails + 1))
    elements = random_gate_list(rng, n_rails, max_gates)
    sources = [SepSource(r, 0.0, emits=bool(rng.random() < 0.6))
               for r in range(n_rails)]
    return Circuit(n_rails=n_rails, elements=elements, sources=sources,
                   detectors=list(range(n_rails)))


def random_dephased_circuit(rng, max_rails=6, max_gates=20, max_segments=8) -> Circuit:
    """Runnable circuit with at least one Coulomb coupler and random wire.

    The wire is not balanced, so the schedule is usually not coincident:
    run it with ``allow_desync`` or without the schedule check.
    """
    circuit = random_runnable_circuit(rng, max_rails, max_gates)
    elements = list(circuit.elements)
    rails = tuple(int(r) for r in rng.choice(circuit.n_rails, 2, replace=False))
    elements.insert(int(rng.integers(len(elements) + 1)),
                    CoulombCoupler(rails, chi_t=float(rng.uniform(-math.pi, math.pi))))
    segments = [Segment(int(rng.integers(circuit.n_rails)),
                        float(rng.uniform(0.0, 40.0)),
                        int(rng.integers(0, len(elements) + 1)))
                for _ in range(int(rng.integers(1, max_segments + 1)))]
    return Circuit(n_rails=circuit.n_rails, elements=elements, segments=segments,
                   sources=circuit.sources, detectors=circuit.detectors)
