"""Occupation-basis simulator for single-electron flying qubits on nanowire rails."""

from .budget import (
    GAAS_L_PHI_UM,
    GOLD_L_PHI_UM,
    L_PHI_PRESETS,
    BudgetReport,
    analyze,
    rail_path_lengths,
)
from .dualrail import (
    LEAK,
    DualRailRegister,
    LogicalOutcome,
    decode,
    encode,
    fredkin_circuit,
    logical_hadamard,
)
from .fock import (
    MAX_RAILS,
    CapacityError,
    OccupationState,
    apply_mode_unitary,
    prepare_occupation,
    vacuum,
)
from .gates import (
    DEFAULT_TRANSFER_LENGTH_UM,
    FIFTY_FIFTY_COUPLING_UM,
    CompositeGate,
    CoulombCoupler,
    GateElement,
    PhaseShifter,
    WaveguideCoupler,
    apply_element,
    build_dense_unitary,
    coulomb_phase,
    coupler_matrix,
    phase_shifter_matrix,
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
    run_shots,
)

__version__ = "0.3.0"
