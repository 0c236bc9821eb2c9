"""Benchmark of the ``impartial`` CLI over four workloads.

    python3 perfbench/run.py --workload sweep|exact|sample|verify \
        --seed N --seconds S --trace 0|1

With ``--trace 0`` it runs the workload's command list in fresh
single-threaded processes, one pass per process, for about ``--seconds``
seconds, and reports the end-to-end metrics as medians over passes.
With ``--trace 1`` it runs one untraced and one traced pass, probes the
1 s exact frontier of four mechanisms, and reports the per-layer metrics.
The last line of stdout is the result as one JSON object.  The
environment goes to stderr, and the result with its environment is
appended to ``.bench_work/results.jsonl``; a traced run also writes
``.bench_work/trace-<workload>-s<seed>.json`` with per-span totals.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import FRONTIER_MECHS, frontier_metric_names
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".bench_work"
WORKER = HERE / "worker.py"

SETUP_SPAWNS = 5          # extra set-up-only processes per run, for the setup_s median
PASS_TIMEOUT_S = 80
FRONTIER_TIMEOUT_S = 15


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


class WorkerTimeout(BenchError):
    """A worker ran over its time limit and was stopped; ``stdout`` holds
    what it printed until then."""

    def __init__(self, message: str, stdout: str) -> None:
        super().__init__(message)
        self.stdout = stdout


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("IMPARTIAL_SEED", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(args: list[str], timeout: float) -> tuple[float, float, str]:
    """Run the worker; (monotonic start, seconds taken, stdout)."""
    start = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT, env=worker_env(),
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the worker
        partial = (exc.stdout or b"").decode(errors="replace")
        raise WorkerTimeout(f"worker {args} ran over {timeout} s", partial) from None
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    sys.stderr.write(proc.stderr)  # tracebacks of commands that crashed
    return start, time.monotonic() - start, proc.stdout


def run_worker(workload: str, seed: int, mode: str) -> dict:
    start, took, stdout = spawn(["--workload", workload, "--seed", str(seed), "--mode", mode],
                                PASS_TIMEOUT_S)
    report = json.loads(stdout.strip().splitlines()[-1])
    report["setup_raw_s"] = report["ready_at"] - start
    report["setup_s"] = report["setup_raw_s"] * report["setup_speed"]
    if "wall_s" in report:
        report["wall_raw_s"] = report["wall_s"]
        report["wall_s"] = report["wall_raw_s"] * report["speed"]
    report["took_s"] = took
    return report


def probe_frontier(mech: str, seed: int) -> int:
    """Largest n whose exact call finished within 1 s (5 if none did).  A
    probe still running at its timeout is stopped and keeps the sizes it
    finished."""
    try:
        _, _, stdout = spawn(["--frontier", mech, "--seed", str(seed)], FRONTIER_TIMEOUT_S)
    except WorkerTimeout as exc:
        stdout = exc.stdout
    return max((int(line) for line in stdout.split()), default=5)


def failed_commands(passes: list[dict]) -> int:
    """Commands that failed their check, or whose stdout differs from the
    first pass of the same seed (the output must be deterministic)."""
    first = passes[0]["digests"]
    failed = 0
    for p in passes:
        bad = {i for i, _ in p["failures"]}
        bad |= {i for i, (d, d0) in enumerate(zip(p["digests"], first)) if d != d0}
        failed += len(bad)
    return failed


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": git_commit(),
        "seed": seed,
    }


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload: str, seed: int, seconds: int) -> tuple[dict, list[dict]]:
    passes: list[dict] = []
    start = time.monotonic()
    while True:
        passes.append(run_worker(workload, seed, "pass"))
        typical = statistics.median(p["took_s"] for p in passes)
        if time.monotonic() - start + typical > seconds:
            break
    setups = [run_worker(workload, seed, "setup")["setup_s"] for _ in range(SETUP_SPAWNS)]
    setups += [p["setup_s"] for p in passes]
    metrics = {
        "wall_s": metric(statistics.median(p["wall_s"] for p in passes), "s"),
        "items_per_s": metric(statistics.median(p["items"] / p["wall_s"] for p in passes), "1/s"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(statistics.median(p["maxrss_kb"] / 1024 for p in passes), "MB"),
    }
    return metrics, passes


def per_layer(workload: str, seed: int) -> tuple[dict, list[dict], dict]:
    untraced = run_worker(workload, seed, "pass")
    traced = run_worker(workload, seed, "traced")
    values = dict(traced["layers"])
    for mech, name in zip(FRONTIER_MECHS, frontier_metric_names()):
        values[name] = probe_frontier(mech, seed)
    values["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    values["trace.overhead_frac"] = values["trace.overhead_s"] / untraced["wall_s"]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: metric(float(values[m["name"]]), m["unit"]) for m in spec["per_layer"]}
    return metrics, [untraced, traced], traced["spans"]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "impartial" / "cli.py").is_file():
        print(f"error: no impartial sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORKDIR.mkdir(exist_ok=True)
    env = environment(args.seed)
    print(json.dumps({"environment": env}), file=sys.stderr)
    try:
        run_worker(args.workload, args.seed, "setup")  # compiles bytecode, warms the file cache
        if args.trace:
            metrics, passes, spans = per_layer(args.workload, args.seed)
        else:
            metrics, passes = end_to_end(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    failed = failed_commands(passes)
    attempted = sum(p["attempted"] for p in passes)
    for p in passes:
        for _, message in p["failures"]:
            print(f"check failed: {message}", file=sys.stderr)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = {"workload": args.workload, "trace": args.trace, "environment": env,
              "passes": [{k: p[k] for k in ("wall_s", "wall_raw_s", "speed", "setup_s",
                                            "setup_raw_s", "setup_speed", "maxrss_kb",
                                            "failures")}
                         for p in passes], **result}
    with open(WORKDIR / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    if args.trace:
        trace_file = WORKDIR / f"trace-{args.workload}-s{args.seed}.json"
        trace_file.write_text(json.dumps({"environment": env, "spans": spans,
                                          "metrics": metrics}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
