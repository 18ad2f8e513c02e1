#!/usr/bin/env python3
"""flyqsim benchmark: four workloads that each make one stage dominate.

Run from the repository root; flyqsim is imported from ``src/``::

    python3 perfbench/run.py --workload mc_fredkin --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

One operation is one ``cli.run`` in machine format on the workload's netlist
file; for ``long_netlist`` it is ``netlist.serialize``, a file write, then
``cli.run``.  Every operation's output is checked by the workload's oracle
and must equal the first operation's output byte for byte.

``--trace 0`` splits the run over three fresh worker processes and reports
the end-to-end metrics: ``run_s`` (median wall time of a warm operation over
all workers), ``setup_s`` (median over the workers of importing flyqsim,
generating and writing the inputs and one warm-up operation) and
``peak_rss_mb`` (median over the workers of their peak resident set size).
``fail_frac`` is ``failed / attempted`` in the result line.  ``--trace 1``
runs in one process, half the time untraced and half with spans installed
(see ``tracing.py``), and reports per-layer metrics per operation.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("readout_narrow", "mc_fredkin", "mesh_wide", "long_netlist")
PROCESSES = 3
WORKER_TIMEOUT_S = 150
RUN_TIMEOUT_S = 600
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


class Bench:
    """One workload's netlist, its operation and the tally of checked runs."""

    def __init__(self, workload, path: Path):
        from flyqsim import cli, netlist
        self.workload = workload
        self.path = path
        self.cli = cli
        self.netlist = netlist
        self.reference = None
        self.attempted = 0
        self.failed = 0
        if workload.circuit is None:
            path.write_text(workload.netlist, encoding="utf-8")

    def operation(self):
        """The unit of work one sample times; modules are looked up per call."""
        w = self.workload
        serialized = None
        if w.circuit is not None:
            serialized = self.netlist.serialize(w.circuit)
            self.path.write_text(serialized, encoding="utf-8")
        out = io.StringIO()
        config = self.cli.RunConfig(str(self.path), shots=w.shots, seed=w.seed,
                                    dephasing_mode=w.mode,
                                    output_format="machine")
        code = self.cli.run(config, out=out)
        return code, out.getvalue(), serialized

    def timed(self, operation=None) -> float:
        """Run one operation, check its output, return its wall time."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = (operation or self.operation)()
        except Exception:  # a crash is a failed operation, not a crashed run
            elapsed = time.perf_counter() - start
            self._fail(traceback.format_exc())
            return elapsed
        elapsed = time.perf_counter() - start
        problem = self.verify(*result)
        if problem:
            self._fail(problem)
        return elapsed

    def verify(self, code, report, serialized):
        """Reason the output is wrong, or None."""
        if code != 0:
            return f"exit code {code}"
        try:
            self.workload.check(report)
        except (ValueError, KeyError, IndexError) as exc:  # malformed output
            return f"check failed: {exc}"
        if self.reference is None:
            if serialized is not None:
                parsed = self.netlist.parse(serialized)
                if parsed.circuit != self.workload.circuit:
                    return "parse(serialize(c)) != c"
            self.reference = (report, serialized)
        elif (report, serialized) != self.reference:
            return "output differs from the first operation with the same seed"
        return None

    def _fail(self, why: str) -> None:
        self.failed += 1
        print(f"failed operation on {self.workload.name}: {why}",
              file=sys.stderr)


def import_flyqsim():
    sys.path.insert(0, str(SRC))
    try:
        import flyqsim
    except ImportError as exc:
        raise SystemExit(f"error: cannot import flyqsim from {SRC}: {exc}")
    if Path(flyqsim.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"error: flyqsim imported from {flyqsim.__file__}, "
                         f"not from {SRC}")


def set_up(name: str, seed: int):
    """Fresh-process set-up: import, generate, write, one warm-up operation.

    Returns the bench, the set-up seconds and the fock index-cache (hits,
    lookups) of the warm-up.
    """
    start = time.perf_counter()
    import_flyqsim()
    import workloads
    from flyqsim import fock
    workload = workloads.GENERATORS[name](seed)
    WORK.mkdir(parents=True, exist_ok=True)
    bench = Bench(workload, WORK / f"{name}-seed{seed}.fq")
    bench.timed()
    elapsed = time.perf_counter() - start
    infos = (fock.rail_occupied_indices.cache_info(),
             fock.pair_occupied_indices.cache_info())
    hits = sum(info.hits for info in infos)
    lookups = hits + sum(info.misses for info in infos)
    return bench, elapsed, (hits, lookups)


def measure(bench: Bench, seconds: float, operation=None) -> list:
    """Time operations until ``seconds`` have passed; at least one."""
    samples = []
    deadline = time.perf_counter() + seconds
    while not samples or time.perf_counter() < deadline:
        samples.append(bench.timed(operation))
    return samples


def child(argv: list, timeout: float) -> tuple:
    """Run this script with ``argv``; its other lines and its result line."""
    done = subprocess.run([sys.executable, str(Path(__file__).resolve()), *argv],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"error: {' '.join(argv)} exited with {done.returncode}")
    return lines[:-1], json.loads(lines[-1])


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def conditions(bench: Bench) -> dict:
    import numpy
    return {"nproc": os.cpu_count(), "cpu": cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "threads": {var: os.environ.get(var) for var in THREAD_VARS},
            "workload": bench.workload.name, "seed": bench.workload.seed,
            **bench.workload.stats()}


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def worker(name: str, seed: int, seconds: float) -> dict:
    """One fresh process: set up, then time warm operations."""
    bench, setup_s, _ = set_up(name, seed)
    samples = measure(bench, seconds)
    bench.path.unlink(missing_ok=True)
    report = (bench.reference or ("", None))[0]
    return {"setup_s": setup_s, "samples": samples,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "attempted": bench.attempted, "failed": bench.failed,
            "digest": hashlib.sha256(report.encode()).hexdigest(),
            "conditions": conditions(bench)}


def end_to_end(name: str, seed: int, seconds: float) -> dict:
    """Spread the run over fresh processes, so one process's luck (memory
    placement, a slow spell) moves the medians less; each gives a set-up
    sample and a share of the timed operations."""
    runs = [child(["--workload", name, "--seed", str(seed), "--seconds",
                   str(seconds / PROCESSES), "--worker"], WORKER_TIMEOUT_S)[1]
            for _ in range(PROCESSES)]
    samples = [x for r in runs for x in r["samples"]]
    result = {"attempted": sum(r["attempted"] for r in runs),
              "failed": sum(r["failed"] for r in runs)}
    if len({r["digest"] for r in runs}) != 1:
        print("output differs between processes with the same seed",
              file=sys.stderr)
        result["failed"] += PROCESSES
    metrics = {
        "run_s": metric(statistics.median(samples), "s"),
        "setup_s": metric(statistics.median(r["setup_s"] for r in runs), "s"),
        "peak_rss_mb": metric(statistics.median(r["peak_rss_mb"] for r in runs),
                              "MiB"),
    }
    print("conditions " + json.dumps(runs[0]["conditions"]))
    print(f"run_s        {metrics['run_s']['value']:.4f} s "
          f"(median of {len(samples)} warm operations)")
    print(f"setup_s      {metrics['setup_s']['value']:.4f} s "
          f"(median of {PROCESSES} fresh processes)")
    print(f"peak_rss_mb  {metrics['peak_rss_mb']['value']:.1f} MiB "
          f"(median of {PROCESSES} processes)")
    return {**result, "metrics": metrics}


def traced(name: str, seed: int, seconds: float) -> dict:
    from tracing import OP_SPAN, SPAN_NAMES, Tracer
    bench, _, (hits, lookups) = set_up(name, seed)
    untraced = measure(bench, seconds / 2)
    tracer = Tracer()
    with tracer.installed():
        with_spans = measure(bench, seconds / 2,
                             lambda: tracer.operation(bench.operation))
    tracer.write(WORK / f"spans-{name}-seed{seed}.json.gz")
    summary = tracer.summary()
    metrics = {}
    for span in SPAN_NAMES:
        entry = summary[span]
        metrics[f"{span}.calls"] = metric(entry["calls"], "count")
        metrics[f"{span}.s"] = metric(entry["s"], "s")
        metrics[f"{span}.self_s"] = metric(entry["self_s"], "s")
    metrics["gates.apply_element_batch.amp_bytes"] = metric(
        tracer.amp_bytes / tracer.operations, "B_computed")
    metrics["fock.index_cache.hit_ratio"] = metric(
        hits / lookups if lookups else 0.0, "ratio")
    metrics["fock.index_cache.lookups"] = metric(lookups, "count")
    metrics["trace_overhead"] = metric(
        statistics.median(with_spans) / statistics.median(untraced) - 1.0,
        "ratio")
    total = summary[OP_SPAN]["s"]
    print(f"per operation ({tracer.operations} traced, {total:.4f} s each); "
          f"share = self time / operation time")
    for span in sorted(SPAN_NAMES, key=lambda s: -summary[s]["self_s"]):
        entry = summary[span]
        print(f"  {span:28s} calls {entry['calls']:>9.0f}  s {entry['s']:9.4f}"
              f"  self_s {entry['self_s']:9.4f}"
              f"  share {entry['self_s'] / total:6.1%}")
    bench.path.unlink(missing_ok=True)
    print("conditions " + json.dumps(conditions(bench)))
    return {"attempted": bench.attempted, "failed": bench.failed,
            "metrics": metrics}


def run_one(args) -> int:
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    if args.worker:
        print(json.dumps(worker(args.workload, args.seed, args.seconds)))
        return 0
    step = traced if args.trace else end_to_end
    result = step(args.workload, args.seed, args.seconds)
    print(f"fail_frac    {result['failed']}/{result['attempted']} = "
          f"{result['failed'] / result['attempted']:g} ratio")
    print(json.dumps({"correct": result["failed"] == 0, **result}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so set-up and memory stay separate."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        lines, result = child(["--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], RUN_TIMEOUT_S)
        print("\n".join(lines), flush=True)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
