"""Dual-rail logical layer: one electron shared between two rails per qubit.

Logical 0 puts the electron on the first rail of a pair (occupation pattern
(1, 0)), logical 1 on the second (0, 1).  Any measured pattern outside those
two, meaning an empty or doubly occupied pair, is reported as leakage.
A register is a pair of rails in ``netlist.Circuit.registers``, which
validates it; its inputs are loaded by the pumps of its circuit, and this
module only decodes what the detectors read.  The Hadamard and Fredkin
syntheses live in ``gates`` beside the macro table that the netlist expands
through.
"""

from __future__ import annotations

# indexed by (first rail occupied) | (second rail occupied) << 1
_SYMBOLS = "L01L"


def decode(mask: int, pairs) -> str:
    """The report key of a measured occupation mask: one character per
    ``(rail0, rail1)`` pair of ``pairs``, ``0``, ``1``, or ``L`` for a pair
    outside the code space (empty or doubly occupied)."""
    return "".join(_SYMBOLS[(mask >> rail0) & 1 | ((mask >> rail1) & 1) << 1]
                   for rail0, rail1 in pairs)
