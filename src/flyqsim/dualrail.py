"""Dual-rail logical layer: one electron shared between two rails per qubit.

Logical 0 puts the electron on the first rail of a pair (occupation pattern
(1, 0)), logical 1 on the second (0, 1).  Any measured pattern outside those
two, meaning an empty or doubly occupied pair, is reported as leakage.
A register's inputs are loaded by the pumps of its circuit; this module
only decodes what the detectors read.  The Hadamard and Fredkin syntheses
live in ``gates`` beside the macro table that the netlist expands through.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fock import require_integer

LEAK = "LEAK"


@dataclass(frozen=True)
class DualRailRegister:
    """Ordered rail pairs; per pair, first rail is the 0-rail.

    Rails are integers by ``fock.require_integer`` and not negative, else
    ``ValueError``; ``Circuit`` checks them against its rail count.
    """

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        pairs = tuple((int(require_integer(a, "register rail")),
                       int(require_integer(b, "register rail")))
                      for a, b in self.pairs)
        if any(r < 0 for pair in pairs for r in pair):
            raise ValueError(f"register rails must be >= 0, got {pairs}")
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
