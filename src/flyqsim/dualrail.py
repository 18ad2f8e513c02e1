"""Dual-rail logical layer: one electron shared between two rails per qubit.

Logical 0 puts the electron on the first rail of a pair (occupation pattern
(1, 0)), logical 1 on the second (0, 1).  Any measured pattern outside those
two, meaning an empty or doubly occupied pair, is reported as leakage.

The Hadamard and Fredkin syntheses (``logical_hadamard``,
``fredkin_circuit``) live in ``gates`` beside the macro table that the
netlist expands through, and are re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fock import OccupationState, prepare_occupation
from .gates import fredkin_circuit, logical_hadamard  # noqa: F401  (re-export)

LEAK = "LEAK"


@dataclass(frozen=True)
class DualRailRegister:
    """Ordered rail pairs; per pair, first rail is the 0-rail."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        pairs = tuple((int(a), int(b)) for a, b in self.pairs)
        object.__setattr__(self, "pairs", pairs)
        flat = [r for pair in pairs for r in pair]
        if len(set(flat)) != len(flat):
            raise ValueError(f"register rails must be distinct, got {pairs}")

    @property
    def n_qubits(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class LogicalOutcome:
    """Per-qubit readout: 0, 1, or LEAK for a pair outside the code space."""

    bits: tuple

    @property
    def has_leak(self) -> bool:
        return LEAK in self.bits

    def __str__(self) -> str:
        return "".join("L" if b is LEAK else str(b) for b in self.bits)


def encode(register: DualRailRegister, bits, n_rails: int) -> OccupationState:
    """Computational-basis product state: one electron per pair.

    ``bits[k] == 0`` loads the first rail of pair k, ``1`` the second.
    """
    bits = list(bits)
    if len(bits) != register.n_qubits:
        raise ValueError(f"expected {register.n_qubits} bits, got {len(bits)}")
    occupied = []
    for bit, (rail0, rail1) in zip(bits, register.pairs):
        if bit not in (0, 1):
            raise ValueError(f"logical bits must be 0 or 1, got {bit!r}")
        occupied.append(rail1 if bit else rail0)
    return prepare_occupation(n_rails, occupied)


def decode(mask: int, register: DualRailRegister) -> LogicalOutcome:
    """Map a measured occupation mask to logical bits, flagging leakage."""
    bits = []
    for rail0, rail1 in register.pairs:
        pattern = ((mask >> rail0) & 1, (mask >> rail1) & 1)
        if pattern == (1, 0):
            bits.append(0)
        elif pattern == (0, 1):
            bits.append(1)
        else:
            bits.append(LEAK)
    return LogicalOutcome(tuple(bits))
