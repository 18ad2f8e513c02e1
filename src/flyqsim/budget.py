"""Coherence budget: path lengths against the phase coherence length.

The budget is pessimistic by design: interference quality is set by the
worst arm, so the report uses the longest single-rail path (all declared
wire plus the footprint of every element the rail passes through).  The
feasible gate count is the plain ratio of the coherence length to an
assumed per-gate footprint, floored; with micron-scale gates and coherence
lengths of a few tens of microns that lands in the tens.

Each element states its own ``rails`` and ``footprint``; a macro has no
single footprint, so the budget reads the circuit's primitive form,
``circuit.expanded``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

GAAS_L_PHI_UM = 30.0
GOLD_L_PHI_UM = 18.0
L_PHI_PRESETS = {"gaas": GAAS_L_PHI_UM, "gold": GOLD_L_PHI_UM}

DEFAULT_GATE_LENGTH_UM = 1.0


@dataclass(frozen=True)
class BudgetReport:
    per_rail_length: tuple      # um, indexed by rail
    max_length: float           # um
    l_phi: float                # um
    coherence_factor: float     # exp(-max_length / l_phi)
    feasible_gate_count: int    # floor(l_phi / assumed_gate_length)
    assumed_gate_length: float  # um


def rail_path_lengths(circuit) -> list[float]:
    """Total traversed length per rail of ``circuit.expanded``: segments
    plus element footprints."""
    circuit = circuit.expanded
    lengths = [0.0] * circuit.n_rails
    for seg in circuit.segments:
        lengths[seg.rail] += seg.length
    for element in circuit.elements:
        footprint = element.footprint
        for rail in element.rails:
            lengths[rail] += footprint
    return lengths


def analyze(circuit, l_phi: float = GAAS_L_PHI_UM,
            assumed_gate_length: float = DEFAULT_GATE_LENGTH_UM) -> BudgetReport:
    """Coherence report for a circuit at a given coherence length."""
    if not l_phi > 0:
        raise ValueError(f"l_phi must be > 0, got {l_phi}")
    if not assumed_gate_length > 0:
        raise ValueError(f"assumed_gate_length must be > 0, "
                         f"got {assumed_gate_length}")
    ratio = l_phi / assumed_gate_length
    if not math.isfinite(ratio):  # floor would overflow on it
        raise ValueError(f"l_phi / assumed_gate_length must be finite, "
                         f"got {l_phi!r} / {assumed_gate_length!r}")
    lengths = rail_path_lengths(circuit)
    max_length = max(lengths) if lengths else 0.0
    return BudgetReport(
        per_rail_length=tuple(lengths),
        max_length=max_length,
        l_phi=l_phi,
        coherence_factor=math.exp(-max_length / l_phi),
        feasible_gate_count=math.floor(ratio),
        assumed_gate_length=assumed_gate_length,
    )
