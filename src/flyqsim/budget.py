"""Coherence budget: path lengths against the phase coherence length.

The budget is pessimistic by design: interference quality is set by the
worst arm, so the report uses the longest single-rail path (all declared
wire plus the footprint of every element the rail passes through).  The
feasible gate count is the plain ratio of the coherence length to an
assumed per-gate footprint, floored; with micron-scale gates and coherence
lengths of a few tens of microns that lands in the tens.

The budget reads the circuit's compiled columns (``gates.ElementColumns``
and the wire columns) in one array pass, with each element's
``footprint`` as ``ElementColumns.footprints`` gives it.  A macro has no
single footprint, so the budget reads the circuit's primitive form,
``circuit.expanded``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import require_positive

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


def require_gate_length(l_phi: float, gate_length, what: str) -> float:
    """``gate_length`` as a ``float`` by ``fock.require_positive``, with a
    finite ``l_phi / gate_length`` (the feasible gate count floors it),
    else ``ValueError`` naming it ``what``.

    ``l_phi`` is a ``float`` already checked ``> 0``.  The one gate-length
    rule: ``analyze`` applies it, and ``cli.RunConfig`` applies it to
    ``--gate-length`` before the run.
    """
    gate_length = require_positive(gate_length, what)
    if not math.isfinite(l_phi / gate_length):
        raise ValueError(f"l_phi / {what} must be finite, "
                         f"got {l_phi!r} / {gate_length!r}")
    return gate_length


def rail_path_lengths(circuit) -> list[float]:
    """Total traversed length per rail of ``circuit.expanded``: segments
    plus element footprints.

    One ``np.bincount`` over the columns adds every segment's length, then
    every element's footprint on its first and on its last rail, in netlist
    order.  It adds in the order of its input, so each total equals a
    scalar loop's bit for bit; a one-rail element adds a zero on its
    repeated rail, and a zero of either sign changes no sum that starts at
    0.0.
    """
    circuit = circuit.expanded
    columns = circuit.columns
    seg_rails, seg_lengths, _ = circuit.wire_columns
    rails = columns.end_rails()
    # once per rail: none on a one-rail element's repeated rail
    footprints = columns.footprints().repeat(2)
    footprints[1::2] *= rails[0] != rails[1]
    return np.bincount(np.concatenate((seg_rails, rails.T.ravel())),
                       np.concatenate((seg_lengths, footprints)),
                       minlength=circuit.n_rails).tolist()


def analyze(circuit, l_phi: float = GAAS_L_PHI_UM,
            assumed_gate_length: float = DEFAULT_GATE_LENGTH_UM) -> BudgetReport:
    """Coherence report for a circuit at a given coherence length.

    ``l_phi`` follows ``fock.require_positive`` and ``assumed_gate_length``
    ``require_gate_length``; both are reported as the floats they are
    checked as.
    """
    l_phi = require_positive(l_phi, "l_phi")
    assumed_gate_length = require_gate_length(l_phi, assumed_gate_length,
                                              "assumed_gate_length")
    lengths = rail_path_lengths(circuit)
    max_length = max(lengths) if lengths else 0.0
    return BudgetReport(
        per_rail_length=tuple(lengths),
        max_length=max_length,
        l_phi=l_phi,
        coherence_factor=math.exp(-max_length / l_phi),
        feasible_gate_count=math.floor(l_phi / assumed_gate_length),
        assumed_gate_length=assumed_gate_length,
    )
