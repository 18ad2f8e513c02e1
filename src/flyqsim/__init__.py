"""Occupation-basis simulator for single-electron flying qubits on nanowire rails."""

from .budget import (
    GAAS_L_PHI_UM,
    GOLD_L_PHI_UM,
    L_PHI_PRESETS,
    BudgetReport,
    analyze,
    rail_path_lengths,
)
from .dualrail import decode
from .fock import MAX_RAILS, CapacityError
from .gates import (
    DEFAULT_TRANSFER_LENGTH_UM,
    FIFTY_FIFTY_COUPLING_UM,
    CompositeGate,
    CoulombCoupler,
    GateElement,
    PhaseShifter,
    WaveguideCoupler,
    build_dense_unitary,
    coupler_matrix,
    fredkin_circuit,
    logical_hadamard,
)
from .netlist import (
    Circuit,
    NetlistError,
    ParseDiagnostic,
    ParseResult,
    Segment,
    expand_composites,
    parse,
    parse_circuit,
    serialize,
)
from .timing import (
    ArrivalTable,
    CoincidenceError,
    ConfigError,
    DephasingModel,
    ElementArrival,
    PropagationModel,
    SepSource,
    ShotHistogram,
    arrival_times,
    check_coincidence,
    outcome_probabilities,
    run_shots,
)

__version__ = "0.7.0"
