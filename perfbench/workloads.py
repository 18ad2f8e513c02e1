"""Workload generators and the output oracles that check them.

Each workload is generated from a workload seed with the standard library's
``random.Random``; flyqsim receives only the generated netlist.  The oracles
below share no code with the engine: they read the machine output as text
and compare it with what the generator knows about its own circuit (path
lengths, electron count, logical truth tables) and with small models built
here from the documented element matrices.

Why these four workloads: each one makes a different stage dominate the
run, so that a change to one stage moves one workload's ``run_s`` and leaves
the others alone.

* ``readout_narrow``: 4 rails, 5e4 shots, ``off`` mode.  Building one random
  stream per shot dominates; state evolution and schedule are negligible.
* ``mc_fredkin``: 10 rails, 500 shots, ``mc`` mode.  The engine (gates and
  fock) works on per-shot batches and dominates; RNG is about 1 %.
* ``mesh_wide``: 14 rails, 1e4 shots, ``off`` mode, no Coulomb couplers.  The
  row-wise inverse-CDF sampler over shots x 2^14 dominates.
* ``long_netlist``: 8 rails, 4500 expanded elements and 4000 segments,
  ``factor`` mode, 128 shots.  Serialize, parse and the O(E*S) schedule
  sweeps dominate.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

# documented element conventions (README "Conventions"), restated here so the
# oracles do not import them from the engine
TRANSFER_LENGTH_UM = 0.28
BALANCED_COUPLING_UM = TRANSFER_LENGTH_UM / 2
L_PHI_UM = 30.0
REL_TOL = 1e-12
Z_LIMIT = 5.0


class CheckFailed(ValueError):
    """The machine output disagrees with the oracle."""


@dataclass
class MachineOutput:
    values: dict
    counts: list            # (bits, n) in file order
    logical: list           # (key, n) in file order
    rail_lengths: list      # (rail, um) in file order


def parse_machine_output(text: str) -> MachineOutput:
    """Split flyqsim's ``--format machine`` text into its line kinds."""
    out = MachineOutput({}, [], [], [])
    for line in text.splitlines():
        words = line.split()
        if len(words) == 3 and words[0] == "count":
            out.counts.append((words[1], int(words[2])))
        elif len(words) == 3 and words[0] == "logical":
            out.logical.append((words[1], int(words[2])))
        elif len(words) == 3 and words[0] == "budget_rail_um":
            out.rail_lengths.append((int(words[1]), float(words[2])))
        elif len(words) == 1 and "=" in line:
            key, _, value = line.partition("=")
            if key in out.values:
                raise CheckFailed(f"duplicate key {key}")
            out.values[key] = value
        else:
            raise CheckFailed(f"unrecognised output line {line!r}")
    return out


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _close(actual: float, expected: float, what: str) -> None:
    _require(abs(actual - expected) <= REL_TOL * max(abs(expected), 1e-300),
             f"{what}: {actual!r} != {expected!r}")


def _within_sigma(observed: float, p: float, n: int, what: str) -> float:
    """z-score of a sample mean of ``n`` Bernoulli(p) draws; fails past 5 sigma."""
    sigma = math.sqrt(max(p * (1.0 - p), 1.0 / n) / n)
    z = (observed - p) / sigma
    _require(abs(z) <= Z_LIMIT, f"{what}: mean {observed:.6f} vs {p:.6f} "
                                f"(z = {z:.2f})")
    return z


@dataclass
class Workload:
    """A generated circuit, the run settings and what the oracle expects."""

    name: str
    seed: int
    n_rails: int
    shots: int
    mode: str
    occupied: list
    netlist: str = ""
    registers: list = field(default_factory=list)      # (rail0, rail1)
    rail_lengths: list = field(default_factory=list)   # um per rail
    expanded_elements: int = 0
    segments: int = 0
    circuit: object = None                             # long_netlist only
    spectator_p0: float = 0.0                          # mc_fredkin only
    rail_occupation: list = field(default_factory=list)  # mesh_wide only

    def stats(self) -> dict:
        return {"rails": self.n_rails, "expanded_elements": self.expanded_elements,
                "segments": self.segments, "shots": self.shots,
                "dephasing": self.mode}

    # --- checks -------------------------------------------------------

    def check(self, text: str) -> None:
        """Raise ``CheckFailed`` unless ``text`` is a correct run report."""
        out = parse_machine_output(text)
        v = out.values
        _require(v.get("format") == "machine", "missing format=machine")
        _require(v.get("rails") == str(self.n_rails), "wrong rails")
        _require(v.get("shots") == str(self.shots), "wrong shots")
        _require(v.get("seed") == str(self.seed), "wrong seed")
        _require(v.get("dephasing") == self.mode, "wrong dephasing")
        _require(v.get("coincidence") == "ok", "schedule not ok")
        self._check_counts(out)
        self._check_budget(out)
        if self.registers:
            self._check_logical(out)
        specific = getattr(self, f"_check_{self.name}", None)
        if specific is not None:
            specific(out)

    def _check_counts(self, out: MachineOutput) -> None:
        masks = []
        total = 0
        for bits, n in out.counts:
            _require(len(bits) == self.n_rails and set(bits) <= {"0", "1"},
                     f"malformed outcome {bits}")
            _require(n >= 1, f"non-positive count for {bits}")
            _require(bits.count("1") == len(self.occupied),
                     f"outcome {bits} does not conserve {len(self.occupied)} "
                     f"electrons")
            masks.append(sum(1 << r for r, c in enumerate(bits) if c == "1"))
            total += n
        _require(masks == sorted(set(masks)), "count lines repeated or unsorted")
        _require(total == self.shots, f"counts sum to {total}, not {self.shots}")

    def _check_budget(self, out: MachineOutput) -> None:
        _require([r for r, _ in out.rail_lengths] == list(range(self.n_rails)),
                 "budget_rail_um lines missing or out of order")
        for (rail, um), expected in zip(out.rail_lengths, self.rail_lengths):
            _close(um, expected, f"budget_rail_um {rail}")
        longest = max(self.rail_lengths)
        _close(float(out.values["budget_max_um"]), longest, "budget_max_um")
        factor = math.exp(-longest / L_PHI_UM)
        _close(float(out.values["budget_coherence"]), factor, "budget_coherence")
        expected = 1.0 if self.mode == "off" else factor
        _close(float(out.values["mean_coherence"]), expected, "mean_coherence")

    def _check_logical(self, out: MachineOutput) -> None:
        expected: dict = {}
        leaks = 0
        for bits, n in out.counts:
            key = ""
            for rail0, rail1 in self.registers:
                pattern = bits[rail0] + bits[rail1]
                key += {"10": "0", "01": "1"}.get(pattern, "L")
            expected[key] = expected.get(key, 0) + n
            leaks += n if "L" in key else 0
        _require(out.logical == sorted(expected.items()),
                 "logical lines disagree with count lines")
        _require(out.values.get("leak_count") == str(leaks) and leaks == 0,
                 f"leak_count {out.values.get('leak_count')}, expected 0")

    def _check_readout_narrow(self, out: MachineOutput) -> None:
        # H on qubit a, then a Fredkin controlled by a's 1-rail that swaps b:
        # b copies a, so only 00 and 11 occur, each with probability 1/2
        logical = dict(out.logical)
        _require(set(logical) <= {"00", "11"},
                 f"unexpected logical outcomes {sorted(logical)}")
        _within_sigma(logical.get("00", 0) / self.shots, 0.5, self.shots,
                      "P(00)")

    def _check_mc_fredkin(self, out: MachineOutput) -> None:
        rail0 = self.registers[-1][0]
        p0 = sum(n for bits, n in out.counts if bits[rail0] == "1") / self.shots
        _within_sigma(p0, self.spectator_p0, self.shots, "spectator P(0)")

    def _check_mesh_wide(self, out: MachineOutput) -> None:
        for rail, p in enumerate(self.rail_occupation):
            mean = sum(n for bits, n in out.counts
                       if bits[rail] == "1") / self.shots
            _within_sigma(mean, p, self.shots, f"rail {rail} occupation")


# --- generators -----------------------------------------------------------

def _header(n_rails: int, occupied, registers) -> list:
    lines = [f"rails {n_rails}"]
    for rail in range(n_rails):
        empty = "" if rail in occupied else " empty"
        lines.append(f"sep q{rail} delay=0.0ps{empty}")
    for k, (rail0, rail1) in enumerate(registers):
        lines.append(f"dualrail r{k} q{rail0} q{rail1}")
    return lines


def _wire(lines, lengths, n_rails: int, um: float) -> None:
    """Equal wire on every rail keeps all arrivals coincident."""
    for rail in range(n_rails):
        lines.append(f"segment q{rail} {um!r}um")
        lengths[rail] += um


def _hadamard(lines, lengths, rail0: int, rail1: int) -> int:
    lines.append(f"hadamard q{rail0} q{rail1}")
    lengths[rail0] += BALANCED_COUPLING_UM
    lengths[rail1] += BALANCED_COUPLING_UM
    return 3


def _fredkin(lines, lengths, control: int, t0: int, t1: int) -> int:
    lines.append(f"fredkin q{control} q{t0} q{t1}")
    lengths[t0] += 2 * BALANCED_COUPLING_UM
    lengths[t1] += 2 * BALANCED_COUPLING_UM
    return 6


def _finish(w: Workload, lines, lengths, elements: int, segments: int) -> Workload:
    lines.extend(f"set q{rail}" for rail in range(w.n_rails))
    w.netlist = "\n".join(lines) + "\n"
    w.rail_lengths = lengths
    w.expanded_elements = elements
    w.segments = segments
    return w


def readout_narrow(seed: int) -> Workload:
    rng = random.Random(seed)
    registers = [(0, 1), (2, 3)]
    w = Workload("readout_narrow", seed, 4, 50_000, "off", [0, 2],
                 registers=registers)
    lines = _header(4, w.occupied, registers)
    lengths = [0.0] * 4
    _wire(lines, lengths, 4, rng.uniform(1.0, 10.0))
    elements = _hadamard(lines, lengths, 0, 1)
    _wire(lines, lengths, 4, rng.uniform(1.0, 10.0))
    elements += _fredkin(lines, lengths, 1, 2, 3)
    return _finish(w, lines, lengths, elements, 8)


def _spectator_p0(events) -> float:
    """2x2 density-matrix model of one dual-rail qubit.

    Wire of length l on both rails adds independent phases of variance
    l / L_phi to each, so the coherence shrinks by exp(-l / L_phi).
    """
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    rho = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    for kind, um in events:
        if kind == "wire":
            damp = math.exp(-um / L_PHI_UM)
            rho = rho * np.array([[1.0, damp], [damp, 1.0]])
        else:
            rho = h @ rho @ h.conj().T
    return float(rho[0, 0].real)


MC_LAYERS = 2


def mc_fredkin(seed: int) -> Workload:
    rng = random.Random(seed)
    n_rails = 10
    registers = [(2 * k, 2 * k + 1) for k in range(5)]
    w = Workload("mc_fredkin", seed, n_rails, 500, "mc",
                 [rail0 for rail0, _ in registers], registers=registers)
    lines = _header(n_rails, w.occupied, registers)
    lengths = [0.0] * n_rails
    events = []
    elements = segments = 0
    for _ in range(MC_LAYERS):
        # wire only before each Hadamard layer, so that segment phases stay
        # a small part of the run next to the element updates
        um = rng.uniform(10.0, 30.0)
        _wire(lines, lengths, n_rails, um)
        segments += n_rails
        events.append(("wire", um))
        for rail0, rail1 in registers:
            elements += _hadamard(lines, lengths, rail0, rail1)
        events.append(("hadamard", 0.0))
        # chain over qubits 0..3: the 1-rail of qubit k controls a swap of
        # qubit k+1; qubit 4 is a spectator in no Fredkin
        for k in range(3):
            elements += _fredkin(lines, lengths, registers[k][1],
                                 *registers[k + 1])
    w.spectator_p0 = _spectator_p0(events)
    return _finish(w, lines, lengths, elements, segments)


def _single_particle(n_rails: int, elements) -> np.ndarray:
    """n x n mode unitary from the documented ``ps`` and ``bs`` matrices."""
    u = np.eye(n_rails, dtype=complex)
    for element in elements:
        if element[0] == "ps":
            _, rail, phi = element
            u[rail, :] *= np.exp(1j * phi)
        else:
            _, a, b, lc = element
            theta = (math.pi / 2.0) * lc / TRANSFER_LENGTH_UM
            m = np.array([[math.cos(theta), 1j * math.sin(theta)],
                          [1j * math.sin(theta), math.cos(theta)]])
            u[[a, b], :] = m @ u[[a, b], :]
    return u


MESH_RAILS = 14


def mesh_wide(seed: int) -> Workload:
    rng = random.Random(seed)
    n = MESH_RAILS
    w = Workload("mesh_wide", seed, n, 10_000, "off", list(range(0, n, 2)))
    lines = _header(n, w.occupied, [])
    lengths = [0.0] * n
    elements = []
    for depth in range(n):
        _wire(lines, lengths, n, rng.uniform(1.0, 5.0))
        for rail in range(n):
            phi = rng.uniform(0.0, 2.0 * math.pi)
            lines.append(f"ps q{rail} phi={phi!r}rad")
            elements.append(("ps", rail, phi))
        for a in range(depth % 2, n - 1, 2):
            lc = rng.uniform(0.2, 0.8) * TRANSFER_LENGTH_UM
            lines.append(f"bs q{a} q{a + 1} lc={lc!r}um lt={TRANSFER_LENGTH_UM!r}um")
            lengths[a] += lc
            lengths[a + 1] += lc
            elements.append(("bs", a, a + 1, lc))
    u = _single_particle(n, elements)
    # one-body density of a Slater determinant: <n_r> = sum_j |U[r, j]|^2
    w.rail_occupation = [float(np.sum(np.abs(u[r, w.occupied]) ** 2))
                         for r in range(n)]
    return _finish(w, lines, lengths, len(elements), n * n)


LONG_BLOCKS = 500


def long_netlist(seed: int) -> Workload:
    """Built as a ``Circuit`` so that the operation starts at ``serialize``."""
    from flyqsim.gates import (CompositeGate, CoulombCoupler, PhaseShifter,
                               WaveguideCoupler)
    from flyqsim.netlist import Circuit, Segment
    from flyqsim.timing import SepSource

    rng = random.Random(seed)
    n = 8
    w = Workload("long_netlist", seed, n, 128, "factor", [0, 2, 4, 6])
    lengths = [0.0] * n
    elements, segments = [], []
    for _ in range(LONG_BLOCKS):
        um = rng.uniform(0.01, 0.05)
        for rail in range(n):
            segments.append(Segment(rail, um, len(elements)))
            lengths[rail] += um
        for _ in range(4):
            elements.append(PhaseShifter(rng.randrange(n),
                                         rng.uniform(0.0, 2.0 * math.pi)))
        a, b = rng.sample(range(n), 2)
        lc = rng.uniform(0.05, 0.25)
        elements.append(WaveguideCoupler((a, b), lc, TRANSFER_LENGTH_UM))
        lengths[a] += lc
        lengths[b] += lc
        elements.append(CoulombCoupler(tuple(rng.sample(range(n), 2)),
                                       rng.uniform(-math.pi, math.pi)))
        a, b = rng.sample(range(n), 2)
        elements.append(CompositeGate("hadamard", (a, b)))
        lengths[a] += BALANCED_COUPLING_UM
        lengths[b] += BALANCED_COUPLING_UM
    w.circuit = Circuit(
        n_rails=n, elements=elements, segments=segments,
        sources=[SepSource(r, 0.0, r in w.occupied) for r in range(n)],
        detectors=list(range(n)))
    w.rail_lengths = lengths
    w.expanded_elements = LONG_BLOCKS * 9
    w.segments = len(segments)
    return w


GENERATORS = {g.__name__: g for g in (readout_narrow, mc_fredkin, mesh_wide,
                                      long_netlist)}
