"""Batch command line: parse, schedule-check, simulate, report.

Exit codes: 0 success, 2 netlist/configuration errors and runs too large to
simulate (diagnostics printed), 3 coincidence violations without
``--allow-desync``.  Machine output is line-oriented ``key=value`` plus
one ``count <bits> <n>`` line per outcome, sorted by mask, and is
byte-identical across reruns with the same seed.

The command line is ``RunConfig``'s: each flag stores into the field of
that name, with the field's default, and ``main`` builds the config from
the parsed arguments as they are.  ``RunConfig`` checks every setting
before the netlist is read, by the rules of the modules that own them
(``fock``'s number rules, the ``timing`` models and mode names,
``budget``'s gate-length rule), and ``_REPORTS`` is the one table of
report styles.

The per-outcome lines (``count <bits> <n>``, then ``logical <key> <n>``)
come from one numpy writer.  It reads the histogram's own arrays, the
ascending int64 masks and their counts (16 bytes an outcome, held by the
histogram), sorts nothing, and writes ``_CHUNK_ROWS`` lines at a time: the
lines of a chunk are the columns of one uint8 array (prefix, label, space,
the count's digits, newline), and the leading zeros of narrower counts are
dropped from its bytes.  So beside the text it writes, the writer holds one
chunk.  The human report takes its bit strings from the same ``_bit_rows``
and formats its fractions line by line.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from . import budget as budget_mod
from . import netlist as netlist_mod
from . import timing as timing_mod
from .fock import CapacityError, require_at_least, require_float

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DESYNC = 3


@dataclass(frozen=True)
class RunConfig:
    """One run's settings, checked when built; ``build_arg_parser`` has a
    flag for each init field, with its default."""

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
        require_at_least(self.shots, 1, "shots")
        require_at_least(self.seed, 0, "seed")
        for name in ("l_phi", "velocity", "window", "gate_length"):
            object.__setattr__(self, name,
                               require_float(getattr(self, name), name))
        # the models check their own values; frozen, so they stay in step
        # with the fields they were built from
        object.__setattr__(self, "propagation",
                           timing_mod.PropagationModel(self.velocity, self.window))
        # the command line's mode names only, so that the header's
        # dephasing= line is one the command line takes
        if self.dephasing_mode not in timing_mod.MODE_NAMES:
            raise ValueError(f"unknown dephasing mode '{self.dephasing_mode}' "
                             f"(expected {', '.join(timing_mod.MODE_NAMES)})")
        object.__setattr__(self, "dephasing",
                           timing_mod.DephasingModel(self.l_phi, self.dephasing_mode))
        # budget.analyze would reject it only after the simulation
        budget_mod.require_gate_length(self.l_phi, self.gate_length,
                                       "gate_length")
        if self.output_format not in _REPORTS:
            raise ValueError(f"unknown output format '{self.output_format}'")


# outcomes per block of per-outcome lines: a block's buffers stay this size
# however many outcomes a run reports
_CHUNK_ROWS = 4096
_POWERS_OF_TEN = 10 ** np.arange(19, dtype=np.int64)
# column v: the four ASCII digits of v, zero-padded
_DIGIT_COLUMNS = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1) + ord("0")


def _bit_rows(masks: np.ndarray, n_rails: int) -> np.ndarray:
    """ASCII occupations of int64 ``masks`` as a ``(n_rails, len(masks))``
    uint8 array: column ``j`` holds ``b"0"``/``b"1"`` of mask ``j``, rail q0
    in the first row."""
    octets = masks.astype("<i8", copy=False).view(np.uint8).reshape(-1, 8)
    bits = np.unpackbits(octets.T, axis=0, count=n_rails, bitorder="little")
    bits |= ord("0")
    return bits


def _line_block(prefix: bytes, labels: np.ndarray, counts: np.ndarray) -> str:
    """The lines ``<prefix><label> <count>``, one for each column of the
    ASCII ``labels`` and entry of the non-negative int64 ``counts``, as one
    string.

    The lines are the columns of one uint8 array: the count's digits are
    right-aligned in the widest count's width, and the leading zeros of
    narrower counts are made NUL and dropped from the bytes."""
    width = labels.shape[0]
    digits = len(str(int(np.maximum.reduce(counts))))
    start = len(prefix) + width + 1     # first digit's row
    template = prefix + bytes(width) + b" " + bytes(digits) + b"\n"
    buf = np.empty((len(template), counts.size), np.uint8)
    buf[:] = np.frombuffer(template, np.uint8)[:, None]
    buf[len(prefix):start - 1] = labels
    # four digits at a time, from the last: divmod by 10**4, then one
    # gather from _DIGIT_COLUMNS per group
    rest, stop = counts, start + digits
    while stop - start > 4:
        rest, group = np.divmod(rest, 10**4)
        _DIGIT_COLUMNS.take(group, axis=1, out=buf[stop - 4:stop])
        stop -= 4
    _DIGIT_COLUMNS[start - stop:].take(rest, axis=1, out=buf[start:stop])
    if np.minimum.reduce(counts) >= _POWERS_OF_TEN[digits - 1]:
        return buf.T.tobytes().decode("ascii")
    # a count below 10**(digits-1-j) has a leading zero in row start + j
    np.putmask(buf[start:start + digits - 1],
               counts < _POWERS_OF_TEN[digits - 1:0:-1, None], 0)
    return buf.T.tobytes().replace(b"\0", b"").decode("ascii")


def _write_count_lines(out, masks: np.ndarray, counts: np.ndarray,
                       n_rails: int) -> None:
    """One ``count <bits> <n>`` line per entry of the int64 ``masks`` and
    ``counts``, in their order."""
    for start in range(0, masks.size, _CHUNK_ROWS):
        rows = slice(start, start + _CHUNK_ROWS)
        out.write(_line_block(b"count ", _bit_rows(masks[rows], n_rails),
                              counts[rows]))


def _write_logical_lines(out, logical_counts: dict) -> None:
    """One ``logical <key> <n>`` line per decoded key, in key order."""
    keys = sorted(logical_counts)
    for start in range(0, len(keys), _CHUNK_ROWS):
        chunk = keys[start:start + _CHUNK_ROWS]
        labels = np.frombuffer("".join(chunk).encode("ascii"), np.uint8)
        values = np.fromiter(map(logical_counts.__getitem__, chunk),
                             np.int64, len(chunk))
        out.write(_line_block(b"logical ", labels.reshape(len(chunk), -1).T,
                              values))


def _emit_machine(out, config, circuit, result, report, coherence,
                  schedule_note):
    out.write("\n".join([
        "format=machine",
        f"netlist={config.input_path}",
        f"rails={circuit.n_rails}",
        f"shots={config.shots}",
        f"seed={config.seed}",
        f"dephasing={config.dephasing_mode}",
        f"lphi_um={config.l_phi!r}",
        f"velocity_um_ps={config.velocity!r}",
        f"window_ps={config.window!r}",
        f"gate_length_um={config.gate_length!r}",
        f"coincidence={schedule_note}",
        f"mean_coherence={coherence!r}",
    ]) + "\n")
    _write_count_lines(out, result.masks, result.mask_counts, circuit.n_rails)
    lines = []
    if result.logical_counts is not None:
        _write_logical_lines(out, result.logical_counts)
        lines.append(f"leak_count={result.leak_count}")
    for rail, length in enumerate(report.per_rail_length):
        lines.append(f"budget_rail_um {rail} {length!r}")
    lines.append(f"budget_max_um={report.max_length!r}")
    lines.append(f"budget_coherence={report.coherence_factor!r}")
    lines.append(f"budget_feasible_gates={report.feasible_gate_count}")
    out.write("\n".join(lines) + "\n")


def _emit_human(out, config, circuit, result, report, coherence,
                schedule_note):
    n_rails = circuit.n_rails
    registers = ", ".join(name for name, _ in circuit.registers)
    out.write(f"netlist {config.input_path}: {n_rails} rails, "
              f"{len(circuit.columns)} elements\n")
    out.write(f"coincidence check: {schedule_note} "
              f"(window {config.window:g} ps, velocity {config.velocity:g} um/ps)\n")
    out.write(f"{config.shots} shots, seed {config.seed}, "
              f"dephasing {config.dephasing_mode}, "
              f"mean coherence factor {coherence:.6g}\n")
    out.write("counts:\n")
    for start in range(0, result.masks.size, _CHUNK_ROWS):
        rows = slice(start, start + _CHUNK_ROWS)
        bits = _bit_rows(result.masks[rows], n_rails).T.tobytes().decode("ascii")
        for row, count in enumerate(result.mask_counts[rows].tolist()):
            out.write(f"  {bits[row * n_rails:(row + 1) * n_rails]}  {count:>8}  "
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


# report style -> writer: the --format choices and RunConfig's check
_REPORTS = {"human": _emit_human, "machine": _emit_machine}


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

    _REPORTS[config.output_format](out, config, circuit, result, report,
                                  coherence, schedule_note)
    return EXIT_OK


def build_arg_parser() -> argparse.ArgumentParser:
    """The ``flyqsim`` command line: one flag per ``RunConfig`` field, whose
    ``dest`` is the field's name and whose default is the field's."""
    parser = argparse.ArgumentParser(
        prog="flyqsim",
        description="Simulate a single-electron rail netlist and report "
                    "outcome statistics, scheduling, and coherence budget.")
    parser.add_argument("input_path", metavar="netlist",
                        help="path to the netlist file")
    parser.add_argument("--shots", type=int,
                        help="number of detector shots (default %(default)s)")
    parser.add_argument("--seed", type=int,
                        help="master seed; identical seeds give identical output")
    parser.add_argument("--dephasing", dest="dephasing_mode",
                        choices=list(timing_mod.MODE_NAMES),
                        help="dephasing mode (default %(default)s)")
    parser.add_argument("--lphi", dest="l_phi", metavar="LPHI", type=float,
                        help="phase coherence length in um (default %(default)g)")
    parser.add_argument("--velocity", type=float,
                        help="electron group velocity in um/ps (default %(default)g)")
    parser.add_argument("--window", type=float,
                        help="coincidence window in ps (default %(default)g)")
    parser.add_argument("--gate-length", type=float,
                        help="assumed per-gate footprint for the budget, um")
    parser.add_argument("--format", dest="output_format", choices=list(_REPORTS),
                        help="report style")
    parser.add_argument("--allow-desync", action="store_true",
                        help="simulate even when the coincidence check fails")
    parser.set_defaults(**{f.name: f.default for f in fields(RunConfig)
                           if f.init and f.default is not MISSING})
    return parser


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        config = RunConfig(**vars(args))
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE
    return run(config)


def console_main() -> None:
    sys.exit(main())
