"""One benchmark process: set up a workload, run its commands, report as JSON.

    python3 perfbench/worker.py --workload W --seed S --mode setup|pass|traced
    python3 perfbench/worker.py --frontier MECH --seed S

``run.py`` starts a fresh process for every pass, so each pass pays
imports and the engine's ordering-table builds as a CLI user does.  The
report is the last line of stdout; the commands' own output is captured
in memory.  Set-up and the pass each report the CPU speed that a
``SpeedProbe`` saw while they ran.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import signal
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FRONTIER_START, FRONTIER_CEILING = 6, 16
FRONTIER_LIMIT_S = 1.0


class SpeedProbe:
    """Samples how fast this CPU runs while a region of the process runs.

    On a shared host the same work takes up to 1.7 times as long when
    another tenant loads the sibling hardware thread, and that state
    changes every few seconds.  A 50 Hz interval timer interrupts the main
    thread to run a fixed loop of Fraction arithmetic, the program's own
    kind of work, timed in thread CPU time so that waiting for the
    interpreter lock or for the CPU does not count.  ``stop()`` returns
    REFERENCE_S over the loop's mean duration, each sample weighted by the
    wall time since the previous one: 1.0 means the loop ran at the
    reference speed, 0.6 that it ran at 60% of it.
    """

    INTERVAL_S = 0.02
    REFERENCE_S = 2e-4

    def __init__(self) -> None:
        self._weighted = self._weights = 0.0
        self._last = 0.0

    def _sample(self, signum, frame) -> None:
        t0 = time.thread_time()
        acc = Fraction(0)
        for i in range(1, 60):
            acc += Fraction(1, i)
        took = time.thread_time() - t0
        now = time.perf_counter()
        self._weighted += took * (now - self._last)
        self._weights += now - self._last
        self._last = now

    def start(self) -> None:
        self._weighted = self._weights = 0.0
        self._last = time.perf_counter()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)

    def stop(self) -> float:
        """Stop sampling; the speed over the region (1.0 with no sample)."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        if not self._weights:
            return 1.0
        return self.REFERENCE_S / (self._weighted / self._weights)


def run_cli(main, argv) -> tuple[int, str]:
    """Run ``impartial.cli.main`` in-process; an uncaught exception counts
    as exit code 1, as it would for the installed command."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = main(list(argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # noqa: BLE001 - a crash fails the command, not the benchmark
            traceback.print_exc(file=sys.__stderr__)
            rc = 1
    return rc, out.getvalue()


def run_workload(workload: str, seed: int, mode: str, probe: SpeedProbe) -> dict:
    from impartial import cli, mechanisms
    from impartial.graphs import graph_from_text

    import workloads

    commands = workloads.build(workload, seed, Path(".bench_work") / "inputs" / f"s{seed}")
    report = {"ready_at": time.monotonic(), "setup_speed": probe.stop()}
    if mode == "setup":
        return report

    t = None
    if mode == "traced":
        import tracer as tracing

        t = tracing.Tracer()
        tracing.install(t)
    results = []
    probe.start()
    t0 = time.perf_counter()
    for cmd in commands:
        results.append(run_cli(cli.main, cmd.argv))
    wall = time.perf_counter() - t0
    speed = probe.stop()
    if t is not None:
        t.uninstall()

    perm = mechanisms.MECHANISMS["perm"]
    ctx = {"perm_exact": lambda text: list(perm.exact(graph_from_text(text)).probs)}
    failures = workloads.check_all(commands, results, ctx)
    report.update(
        wall_s=wall,
        speed=speed,
        items=sum(cmd.items for cmd in commands),
        attempted=len(commands),
        failures=failures,
        digests=[workloads.digest(stdout) for _, stdout in results],
        maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    if t is not None:
        report["layers"], report["spans"] = tracing.layer_metrics(t)
    return report


def frontier(mech: str, seed: int) -> None:
    """Print each n, from FRONTIER_START up, whose exact call on a seeded
    random graph finishes within FRONTIER_LIMIT_S.  Stop at the first call
    over the limit, at the evaluator's cap, or past FRONTIER_CEILING.  The
    engine's ordering table for n is built before the timed call; the
    exact workload reports its cost."""
    from impartial import engine
    from impartial.graphs import CapacityError, graph_from_text
    from impartial.mechanisms import MECHANISMS

    import workloads

    rnd = random.Random(f"{seed}/frontier/{mech}")
    for n in range(FRONTIER_START, FRONTIER_CEILING + 1):
        g = graph_from_text(workloads.random_graph_text(n, rnd))
        with contextlib.suppress(CapacityError):
            engine.permutation_table(n)
        t0 = time.perf_counter()
        try:
            MECHANISMS[mech].exact(g)
        except CapacityError:
            return
        if time.perf_counter() - t0 > FRONTIER_LIMIT_S:
            return
        print(n, flush=True)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "pass", "traced"), default="pass")
    ap.add_argument("--frontier", help="mechanism whose 1 s frontier to probe")
    args = ap.parse_args()
    probe = SpeedProbe()
    probe.start()
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    if args.frontier:
        probe.stop()
        frontier(args.frontier, args.seed)
        return 0
    print(json.dumps(run_workload(args.workload, args.seed, args.mode, probe)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
