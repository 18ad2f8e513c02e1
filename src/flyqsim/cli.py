"""Batch command line: parse, schedule-check, simulate, report.

Exit codes: 0 success, 2 netlist/configuration errors and runs too large to
simulate (diagnostics printed), 3 coincidence violations without
``--allow-desync``.  Machine output is line-oriented ``key=value`` plus
one ``count <bits> <n>`` line per outcome, sorted by mask, and is
byte-identical across reruns with the same seed.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, field

from . import budget as budget_mod
from . import netlist as netlist_mod
from . import timing as timing_mod
from .fock import CapacityError, require_integer

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DESYNC = 3


@dataclass(frozen=True)
class RunConfig:
    input_path: str
    shots: int = 1024
    seed: int = 0
    dephasing_mode: str = "off"
    l_phi: float = timing_mod.DEFAULT_L_PHI_UM
    velocity: float = timing_mod.DEFAULT_VELOCITY_UM_PS
    window: float = timing_mod.DEFAULT_WINDOW_PS
    gate_length: float = budget_mod.DEFAULT_GATE_LENGTH_UM
    output_format: str = "human"
    allow_desync: bool = False
    propagation: timing_mod.PropagationModel = field(init=False)
    dephasing: timing_mod.DephasingModel = field(init=False)

    def __post_init__(self):
        if require_integer(self.shots, "shots") < 1:
            raise ValueError(f"shots must be >= 1, got {self.shots}")
        if require_integer(self.seed, "seed") < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        # the models check their own values; frozen, so they stay in step
        # with the fields they were built from
        object.__setattr__(self, "propagation",
                           timing_mod.PropagationModel(self.velocity, self.window))
        object.__setattr__(self, "dephasing",
                           timing_mod.DephasingModel(self.l_phi, self.dephasing_mode))
        # the values no model owns: budget.analyze would reject them only
        # after the simulation
        if not self.gate_length > 0:
            raise ValueError(f"gate_length must be > 0, got {self.gate_length}")
        if not math.isfinite(self.l_phi / self.gate_length):
            raise ValueError(f"l_phi / gate_length must be finite, got "
                             f"{self.l_phi!r} / {self.gate_length!r}")
        if self.output_format not in ("human", "machine"):
            raise ValueError(f"unknown output format '{self.output_format}'")


def _mask_bits(mask: int, n_rails: int) -> str:
    """Occupation string with rail q0 leftmost."""
    return format(mask, f"0{n_rails}b")[::-1]


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _emit_machine(out, config, circuit, result, report, coherence,
                  schedule_note):
    lines = [
        "format=machine",
        f"netlist={config.input_path}",
        f"rails={circuit.n_rails}",
        f"shots={config.shots}",
        f"seed={config.seed}",
        f"dephasing={config.dephasing_mode}",
        f"lphi_um={_fmt(config.l_phi)}",
        f"velocity_um_ps={_fmt(config.velocity)}",
        f"window_ps={_fmt(config.window)}",
        f"gate_length_um={_fmt(config.gate_length)}",
        f"coincidence={schedule_note}",
        f"mean_coherence={_fmt(coherence)}",
    ]
    for mask in sorted(result.counts):
        lines.append(f"count {_mask_bits(mask, circuit.n_rails)} "
                     f"{result.counts[mask]}")
    if result.logical_counts is not None:
        for key in sorted(result.logical_counts):
            lines.append(f"logical {key} {result.logical_counts[key]}")
        lines.append(f"leak_count={result.leak_count}")
    for rail, length in enumerate(report.per_rail_length):
        lines.append(f"budget_rail_um {rail} {_fmt(length)}")
    lines.append(f"budget_max_um={_fmt(report.max_length)}")
    lines.append(f"budget_coherence={_fmt(report.coherence_factor)}")
    lines.append(f"budget_feasible_gates={report.feasible_gate_count}")
    out.write("\n".join(lines) + "\n")


def _emit_human(out, config, circuit, result, report, coherence,
                schedule_note):
    registers = ", ".join(name for name, _ in circuit.registers)
    out.write(f"netlist {config.input_path}: {circuit.n_rails} rails, "
              f"{len(circuit.elements)} elements\n")
    out.write(f"coincidence check: {schedule_note} "
              f"(window {config.window:g} ps, velocity {config.velocity:g} um/ps)\n")
    out.write(f"{config.shots} shots, seed {config.seed}, "
              f"dephasing {config.dephasing_mode}, "
              f"mean coherence factor {coherence:.6g}\n")
    out.write("counts:\n")
    for mask in sorted(result.counts):
        count = result.counts[mask]
        out.write(f"  {_mask_bits(mask, circuit.n_rails)}  {count:>8}  "
                  f"{count / result.n_shots:.6f}\n")
    if result.logical_counts is not None:
        out.write(f"logical outcomes ({registers}):\n")
        for key in sorted(result.logical_counts):
            count = result.logical_counts[key]
            out.write(f"  {key}  {count:>8}  {count / result.n_shots:.6f}\n")
        out.write(f"  leaked shots: {result.leak_count}\n")
    rail_paths = ", ".join(f"q{r}={length:g}"
                           for r, length in enumerate(report.per_rail_length))
    out.write(f"budget: rail paths [{rail_paths}] um, "
              f"max {report.max_length:g} um, L_phi {report.l_phi:g} um, "
              f"coherence factor {report.coherence_factor:.6g}, "
              f"feasible gates {report.feasible_gate_count} "
              f"(at {report.assumed_gate_length:g} um per gate)\n")


def _write_violations(out, violations) -> None:
    for violation in violations:
        out.write(f"coincidence violation: {violation}\n")


def run(config: RunConfig, out=None) -> int:
    """Execute one batch run; returns the process exit code."""
    out = out or sys.stdout
    try:
        with open(config.input_path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        out.write(f"error: cannot read {config.input_path}: {exc}\n")
        return EXIT_PARSE

    parsed = netlist_mod.parse(text)
    for diag in parsed.diagnostics:
        out.write(f"{config.input_path}:{diag}\n")
    if not parsed.ok:
        return EXIT_PARSE
    circuit = netlist_mod.expand_composites(parsed.circuit)

    try:
        result = timing_mod.run_shots(
            circuit, config.shots, dephasing=config.dephasing,
            master_seed=config.seed, propagation=config.propagation,
            allow_desync=config.allow_desync)
    except (timing_mod.ConfigError, CapacityError) as exc:
        out.write(f"error: {exc}\n")
        return EXIT_PARSE
    except timing_mod.CoincidenceError as exc:
        _write_violations(out, exc.violations)
        out.write(f"schedule rejected: {len(exc.violations)} violation(s); "
                  f"rerun with --allow-desync to override\n")
        return EXIT_DESYNC
    _write_violations(out, result.violations)
    schedule_note = "ok" if not result.violations else "override"

    report = budget_mod.analyze(circuit, config.l_phi, config.gate_length)
    # the sampler reports no factor: off mode is ideal, the others use the budget's
    coherence = (1.0 if config.dephasing.mode == timing_mod.MODE_OFF
                 else report.coherence_factor)

    emit = _emit_machine if config.output_format == "machine" else _emit_human
    emit(out, config, circuit, result, report, coherence, schedule_note)
    return EXIT_OK


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flyqsim",
        description="Simulate a single-electron rail netlist and report "
                    "outcome statistics, scheduling, and coherence budget.")
    parser.add_argument("netlist", help="path to the netlist file")
    parser.add_argument("--shots", type=int, default=1024,
                        help="number of detector shots (default 1024)")
    parser.add_argument("--seed", type=int, default=0,
                        help="master seed; identical seeds give identical output")
    parser.add_argument("--dephasing", choices=["off", "factor", "mc"],
                        default="off", help="dephasing mode (default off)")
    parser.add_argument("--lphi", type=float, default=timing_mod.DEFAULT_L_PHI_UM,
                        help="phase coherence length in um (default 30)")
    parser.add_argument("--velocity", type=float,
                        default=timing_mod.DEFAULT_VELOCITY_UM_PS,
                        help="electron group velocity in um/ps (default 0.1)")
    parser.add_argument("--window", type=float, default=timing_mod.DEFAULT_WINDOW_PS,
                        help="coincidence window in ps (default 1)")
    parser.add_argument("--gate-length", type=float,
                        default=budget_mod.DEFAULT_GATE_LENGTH_UM,
                        help="assumed per-gate footprint for the budget, um")
    parser.add_argument("--format", choices=["human", "machine"],
                        default="human", help="report style")
    parser.add_argument("--allow-desync", action="store_true",
                        help="simulate even when the coincidence check fails")
    return parser


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        config = RunConfig(
            input_path=args.netlist,
            shots=args.shots,
            seed=args.seed,
            dephasing_mode=args.dephasing,
            l_phi=args.lphi,
            velocity=args.velocity,
            window=args.window,
            gate_length=args.gate_length,
            output_format=args.format,
            allow_desync=args.allow_desync,
        )
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE
    return run(config)


def console_main() -> None:
    sys.exit(main())
