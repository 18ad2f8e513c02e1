#!/usr/bin/env python3
"""Show that every output check can fail.

For each workload, run one real operation, confirm its output passes, then
feed corrupted copies of it to the same verification the benchmark uses and
confirm each is counted as a failure::

    python3 perfbench/selftest.py --seed 7

Exits 1 if a genuine output fails or a corrupted one passes.
"""

from __future__ import annotations

import argparse
import sys

import run


def _mask(bits: str) -> int:
    return int(bits[::-1], 2)


def _edit_counts(text: str, edit) -> str:
    """Apply ``edit`` to the list of count lines, leaving other lines alone."""
    lines = text.splitlines()
    first = next(i for i, line in enumerate(lines) if line.startswith("count "))
    counts = [line for line in lines if line.startswith("count ")]
    rest = [line for line in lines if not line.startswith("count ")]
    return "\n".join(rest[:first] + edit(counts) + rest[first:]) + "\n"


def _consistent(text: str, workload, transform) -> str:
    """Rewrite the histogram with ``transform`` and keep every line consistent.

    ``transform`` maps a list of (bits, n) to a new one; count lines are
    merged and sorted again, and logical lines and leak_count recomputed, so
    only a statistical or determinism check can notice.
    """
    pairs = [(line.split()[1], int(line.split()[2]))
             for line in text.splitlines() if line.startswith("count ")]
    merged: dict = {}
    for bits, n in transform(pairs):
        merged[bits] = merged.get(bits, 0) + n
    counts = [f"count {bits} {n}" for bits, n in
              sorted(merged.items(), key=lambda kv: _mask(kv[0])) if n]
    logical: dict = {}
    for bits, n in merged.items():
        key = "".join({"10": "0", "01": "1"}.get(bits[a] + bits[b], "L")
                      for a, b in workload.registers)
        logical[key] = logical.get(key, 0) + n
    lines = []
    for line in text.splitlines():
        if line.startswith("count ") or line.startswith("logical "):
            continue
        if line.startswith("leak_count="):
            lines += counts + [f"logical {k} {n}" for k, n in sorted(logical.items())]
        elif line.startswith("budget_rail_um 0 ") and not workload.registers:
            lines += counts
        lines.append(line)
    return "\n".join(lines) + "\n"


def _swap_bits(a: int, b: int):
    def swap(pairs):
        out = []
        for bits, n in pairs:
            chars = list(bits)
            chars[a], chars[b] = chars[b], chars[a]
            out.append(("".join(chars), n))
        return out
    return swap


def _move_shots(share: float, source: str, target: str):
    def move(pairs):
        counts = dict(pairs)
        moved = int(counts[source] * share)
        counts[source] -= moved
        counts[target] = counts.get(target, 0) + moved
        return list(counts.items())
    return move


def corruptions(workload, report: str) -> dict:
    common = {
        "truncated report": report[:len(report) // 2],
        "dropped count line": _edit_counts(report, lambda c: c[1:]),
        "doubled count line": _edit_counts(report, lambda c: c[:1] + c),
        "flipped bit": _edit_counts(report, lambda c: [
            f"count {'1' if c[0][6] == '0' else '0'}{c[0][7:]}"] + c[1:]),
        "one shot moved (repeat differs)": _consistent(
            report, workload, lambda pairs: [(pairs[0][0], pairs[0][1] - 1),
                                             (pairs[-1][0], pairs[-1][1] + 1)]
            + pairs[1:-1]),
    }
    if workload.name == "readout_narrow":
        special = {"5% of shots moved from 00 to 11": _consistent(
            report, workload, _move_shots(0.05, "1010", "0101"))}
    elif workload.name == "mc_fredkin":
        rail0, rail1 = workload.registers[-1]
        special = {"spectator rails swapped": _consistent(
            report, workload, _swap_bits(rail0, rail1))}
    elif workload.name == "mesh_wide":
        p = workload.rail_occupation
        a = max(range(len(p)), key=p.__getitem__)
        b = min(range(len(p)), key=p.__getitem__)
        special = {f"rails {a} and {b} swapped": _consistent(
            report, workload, _swap_bits(a, b))}
    else:
        value = next(line for line in report.splitlines()
                     if line.startswith("budget_max_um="))
        wrong = float(value.partition("=")[2]) * (1 + 1e-9)
        special = {
            "budget_max_um off by 1e-9": report.replace(
                value, f"budget_max_um={wrong!r}"),
            "coincidence override": report.replace(
                "coincidence=ok", "coincidence=override"),
        }
    return {**common, **special}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    ok = True
    for name in run.WORKLOADS:
        bench, _, _ = run.set_up(name, args.seed)
        bench.path.unlink(missing_ok=True)
        if bench.failed:
            print(f"FAIL {name}: the genuine output did not pass")
            ok = False
            continue
        report, serialized = bench.reference
        for label, text in corruptions(bench.workload, report).items():
            problem = bench.verify(0, text, serialized)
            print(f"{'ok  ' if problem else 'FAIL'} {name}: {label} -> "
                  f"{problem or 'passed silently'}")
            ok = ok and problem is not None
        if serialized is not None:
            problem = bench.verify(0, report, serialized.replace("rails 8", "rails 9"))
            print(f"{'ok  ' if problem else 'FAIL'} {name}: serialized text "
                  f"changed -> {problem or 'passed silently'}")
            ok = ok and problem is not None
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
