"""The benchmark's workloads: input graphs, CLI command lists and output checks.

Every input graph is drawn from the benchmark's own ``random.Random``,
never from ``impartial.generators`` or ``impartial.rng``, so a change to
the program's random streams cannot shift the inputs between commits.
Each command is an argument list for ``impartial.cli.main``.  Its check
takes the exit code and the captured stdout and raises ``CheckFailed``
when either is wrong.
"""
from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

DEFAULT_SEED = 0
MECHS = ("perm", "rd", "prug", "prugd", "mix")

SWEEP_GRAPHS_N6 = 5 ** 6  # (n-1)^n labelled graphs at n=6
IMPARTIAL_N5_GRAPHS = 4 ** 5
IMPARTIAL_N5_DEVIATIONS = IMPARTIAL_N5_GRAPHS * 5 * 3  # each vertex, 3 new targets
UB_CHAIN_N6_RELABELLINGS = 720 * 7  # 6! relabellings of the 7 family graphs

EXACT_GRAPHS = 1          # random graphs per size in `exact`
SAMPLES_N5 = 5_000        # per-draw sampler calls per mechanism on LB_2_1
SAMPLES_N50 = 500         # per-draw sampler calls per mechanism at n=50
TIGHTNESS_SAMPLES = 100_000  # vectorised draws for the n'=10 tightness row
CORRELATION_GRAPHS = 200

# lower_bound_family(2, 1), fixed text so generator changes cannot move it.
LB_2_1 = "5; 3,5,1,1,2"
LB_2_1_EXACT = {
    "perm": ("13/30", "11/60", "1/5", "0", "11/60"),
    "rd": ("2/5", "1/5", "1/5", "0", "1/5"),
    "prug": ("1/2", "0", "1/8", "0", "0"),
    "prugd": ("7/15", "2/15", "1/5", "1/15", "2/15"),
    "mix": ("2/5", "1/5", "1/5", "0", "1/5"),
}
TIGHTNESS_EXACT_ROWS = ("43/60", "29/42", "49/72")  # n' = 1, 2, 3

MIX_PERM_WEIGHT = Fraction(825, 1049)
MIX_PRUGD_WEIGHT = Fraction(224, 1049)
MIX_FLOOR = Fraction(2105, 3147)

# sha256 prefixes of each `exact` command's stdout at DEFAULT_SEED.
EXACT_DIGESTS_DEFAULT_SEED = {
    "perm-0": "90e740231e88b4ad",
    "prug-0": "c44bf8b5bda3ef38",
    "rd-0": "cf5cb29fa5bf8501",
    "prugd-0": "774b1d54cb9fbf2b",
    "mix-0": "14e4746ca76a58d0",
}


class CheckFailed(Exception):
    """A command's exit code or output is not what the program must give."""


Check = Callable[[int, str, dict], None]


@dataclass(frozen=True)
class Command:
    """One CLI invocation.  ``items`` is its share of the workload's unit
    of work; ``key`` names its output for checks that compare commands."""

    key: str
    argv: tuple[str, ...]
    items: int
    check: Check


# ---------------------------------------------------------------------------
# inputs

def random_graph_text(n: int, rnd: random.Random) -> str:
    """A uniform nomination graph: each vertex names one of the others."""
    out = []
    for v in range(1, n + 1):
        t = rnd.randrange(1, n)
        out.append(t if t < v else t + 1)
    return f"{n}; " + ",".join(map(str, out))


def parse_graph(text: str) -> tuple[int, ...]:
    head, _, body = text.partition(";")
    out = tuple(int(tok) for tok in body.split(","))
    if len(out) != int(head):
        raise ValueError(f"malformed graph line {text!r}")
    return out


def indegrees(out: tuple[int, ...]) -> list[int]:
    deg = [0] * len(out)
    for t in out:
        deg[t - 1] += 1
    return deg


def _write_graph(path: Path, text: str) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text + "\n", encoding="utf-8")
    return path.as_posix()


# ---------------------------------------------------------------------------
# check helpers

def payload(rc: int, stdout: str) -> dict:
    if rc != 0:
        raise CheckFailed(f"exit code {rc}, expected 0")
    try:
        return json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"stdout is not JSON: {exc}") from None


def expect(p: dict, **fields) -> None:
    for key, want in fields.items():
        if p.get(key) != want:
            raise CheckFailed(f"{key} = {p.get(key)!r}, expected {want!r}")


def digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# sweep: every labelled graph at n=6, twice

def _check_bounds_mix(rc: int, stdout: str, ctx: dict) -> None:
    expect(payload(rc, stdout), passed=True, min_ratio="34175/50352", floor="2105/3147")


def _check_worst_case_perm(rc: int, stdout: str, ctx: dict) -> None:
    expect(payload(rc, stdout), min_ratio="163/240", graphs_checked=SWEEP_GRAPHS_N6)


def sweep_commands(seed: int, inputs: Path) -> list[Command]:
    # No input depends on the seed: the sweep covers the whole class.
    return [
        Command("bounds-mix", ("verify", "bounds", "--mech", "mix", "--n", "6", "--jobs", "1"),
                SWEEP_GRAPHS_N6, _check_bounds_mix),
        Command("worst-case-perm", ("worst-case", "--mech", "perm", "--n", "6", "--jobs", "1"),
                SWEEP_GRAPHS_N6, _check_worst_case_perm),
    ]


# ---------------------------------------------------------------------------
# exact: few large n! evaluations

def perm_alpha(delta: int) -> Fraction:
    if delta == 1:
        return Fraction(1)
    if delta % 2:
        return perm_alpha(delta - 1)
    return Fraction(3 * delta + 2, 4 * delta + 4)


def prugd_floor(deg: list[int]) -> Fraction:
    delta = max(deg)
    floor = Fraction(1, 2) + Fraction(7 * delta - 9, 6 * delta * (3 * delta - 2))
    if delta == 2:
        floor = max(floor, Fraction(65, 96))
    if delta == 3 and sum(d >= 2 for d in deg) == 1:
        floor = max(floor, Fraction(13, 18))
    return floor


def exact_distribution(p: dict, n: int) -> list[Fraction]:
    if p.get("mode") != "exact":
        raise CheckFailed(f"mode = {p.get('mode')!r}, expected 'exact'")
    rows = p.get("distribution", [])
    if [r.get("vertex") for r in rows] != list(range(1, n + 1)):
        raise CheckFailed("distribution does not list vertices 1..n in order")
    probs = [Fraction(r["prob"]) for r in rows]
    if any(not 0 <= q <= 1 for q in probs):
        raise CheckFailed("a probability lies outside [0, 1]")
    if Fraction(p.get("total", "-1")) != sum(probs):
        raise CheckFailed("total differs from the sum of the probabilities")
    return probs


def _exact_check(mech: str, graph: str, seed: int, index: int) -> Check:
    out = parse_graph(graph)
    n, deg = len(out), indegrees(out)

    def check(rc: int, stdout: str, ctx: dict) -> None:
        p = payload(rc, stdout)
        probs = exact_distribution(p, n)
        total = sum(probs)
        if mech == "prug" and total > 1 or mech != "prug" and total != 1:
            raise CheckFailed(f"{mech} distribution sums to {total}")
        ratio = sum(d * q for d, q in zip(deg, probs)) / max(deg)
        if Fraction(p["ratio"]["ratio"]) != ratio:
            raise CheckFailed("reported ratio differs from the distribution's")
        floors = {"perm": perm_alpha(max(deg)), "prugd": prugd_floor(deg), "mix": MIX_FLOOR}
        if mech in floors and ratio < floors[mech]:
            raise CheckFailed(f"{mech} ratio {ratio} below its floor {floors[mech]}")
        if mech == "rd" and probs != [Fraction(d, n) for d in deg]:
            raise CheckFailed("rd probabilities differ from indegree/n")
        if mech == "mix":
            perm = ctx["perm_exact"](graph)
            prugd = ctx[f"prugd-{index}"]
            blend = [MIX_PERM_WEIGHT * a + MIX_PRUGD_WEIGHT * b for a, b in zip(perm, prugd)]
            if probs != blend:
                raise CheckFailed("mix differs from 825/1049 perm + 224/1049 prugd")
        ctx[f"{mech}-{index}"] = probs
        pinned = EXACT_DIGESTS_DEFAULT_SEED.get(f"{mech}-{index}")
        if seed == DEFAULT_SEED and pinned is not None and digest(stdout) != pinned:
            raise CheckFailed(f"stdout digest {digest(stdout)} differs from the pinned {pinned}")

    return check


def exact_commands(seed: int, inputs: Path) -> list[Command]:
    rnd = random.Random(f"{seed}/exact")
    commands = []
    for k in range(EXACT_GRAPHS):
        g10 = random_graph_text(10, rnd)
        g8 = random_graph_text(8, rnd)
        f10 = _write_graph(inputs / f"exact-n10-{k}.txt", g10)
        f8 = _write_graph(inputs / f"exact-n8-{k}.txt", g8)
        for mech, graph, path in (("perm", g10, f10), ("prug", g10, f10), ("rd", g10, f10),
                                  ("prugd", g8, f8), ("mix", g8, f8)):
            commands.append(Command(f"{mech}-{k}", ("eval", "--mech", mech, "--graph", path),
                                    1, _exact_check(mech, graph, seed, k)))
    return commands


# ---------------------------------------------------------------------------
# sample: per-draw samplers plus the one vectorised batch sampler

def _sample_counts(p: dict, n: int, samples: int) -> tuple[list[int], int]:
    if p.get("mode") != "sampled" or p.get("samples") != samples:
        raise CheckFailed("not a sampled run of the requested size")
    rows = p.get("frequencies", [])
    if [r.get("vertex") for r in rows] != list(range(1, n + 1)):
        raise CheckFailed("frequencies do not list vertices 1..n in order")
    counts = [r["count"] for r in rows]
    none = p.get("none_count")
    if min(counts) < 0 or none < 0 or sum(counts) + none != samples:
        raise CheckFailed("counts do not add up to the number of draws")
    return counts, none


def _within_5_sigma(count: int, prob: Fraction, samples: int) -> bool:
    p = float(prob)
    return abs(count / samples - p) <= 5 * math.sqrt(p * (1 - p) / samples) + 1e-12


def _check_sample_lb(mech: str) -> Check:
    exact = [Fraction(q) for q in LB_2_1_EXACT[mech]]

    def check(rc: int, stdout: str, ctx: dict) -> None:
        counts, none = _sample_counts(payload(rc, stdout), 5, SAMPLES_N5)
        for v, (c, q) in enumerate(zip(counts + [none], exact + [1 - sum(exact)]), start=1):
            if not _within_5_sigma(c, q, SAMPLES_N5):
                what = "no selection" if v == 6 else f"vertex {v}"
                raise CheckFailed(f"{mech}: {what} drawn {c} times, exact probability {q}")

    return check


def _check_sample_n50(mech: str, graph: str) -> Check:
    deg = indegrees(parse_graph(graph))

    def check(rc: int, stdout: str, ctx: dict) -> None:
        counts, none = _sample_counts(payload(rc, stdout), 50, SAMPLES_N50)
        if mech != "prug" and none:
            raise CheckFailed(f"{mech} always selects but drew no one {none} times")
        if mech == "rd" and any(c and not d for c, d in zip(counts, deg)):
            raise CheckFailed("rd selected a vertex nobody nominates")

    return check


def _check_tightness(rc: int, stdout: str, ctx: dict) -> None:
    p = payload(rc, stdout)
    expect(p, passed=True)
    rows = p.get("rows", [])
    got = [(r.get("kind"), r.get("ratio")) for r in rows[:3]]
    if got != [("exact", r) for r in TIGHTNESS_EXACT_ROWS]:
        raise CheckFailed(f"exact tightness rows {got}")
    if len(rows) != 4 or rows[3].get("n") != 23 or rows[3].get("samples") != TIGHTNESS_SAMPLES:
        raise CheckFailed("the n'=10 row is not a sampled row at n=23")


def sample_commands(seed: int, inputs: Path) -> list[Command]:
    rnd = random.Random(f"{seed}/sample")
    g50 = random_graph_text(50, rnd)
    f5 = _write_graph(inputs / "sample-lb-2-1.txt", LB_2_1)
    f50 = _write_graph(inputs / "sample-n50.txt", g50)
    commands = []
    for mech in MECHS:
        for path, samples, check in ((f5, SAMPLES_N5, _check_sample_lb(mech)),
                                     (f50, SAMPLES_N50, _check_sample_n50(mech, g50))):
            argv = ("eval", "--mech", mech, "--graph", path, "--samples", str(samples),
                    "--seed", str(rnd.randrange(2 ** 31)))
            commands.append(Command(f"{mech}-{Path(path).stem}", argv, samples, check))
    argv = ("verify", "tightness", "--delta", "2", "--nprimes", "1,2,3,10",
            "--samples", str(TIGHTNESS_SAMPLES), "--seed", str(rnd.randrange(2 ** 31)),
            "--jobs", "1")
    commands.append(Command("tightness", argv, TIGHTNESS_SAMPLES, _check_tightness))
    return commands


# ---------------------------------------------------------------------------
# verify: many small exact calls behind the verifiers' caches

def _check_impartial(rc: int, stdout: str, ctx: dict) -> None:
    expect(payload(rc, stdout), passed=True, graphs_checked=IMPARTIAL_N5_GRAPHS,
           deviations_checked=IMPARTIAL_N5_DEVIATIONS)


def _check_ub_chain(rc: int, stdout: str, ctx: dict) -> None:
    expect(payload(rc, stdout), passed=True, symmetry_checks=UB_CHAIN_N6_RELABELLINGS)


def _check_correlation(rc: int, stdout: str, ctx: dict) -> None:
    expect(payload(rc, stdout), passed=True, graphs_checked=CORRELATION_GRAPHS + 1)


def verify_commands(seed: int, inputs: Path) -> list[Command]:
    commands = [
        Command(f"impartial-{mech}", ("verify", "impartial", "--mech", mech, "--n", "5",
                                      "--jobs", "1"),
                IMPARTIAL_N5_DEVIATIONS, _check_impartial)
        for mech in MECHS
    ]
    commands += [
        Command(f"ub-chain-{mech}", ("verify", "ub-chain", "--mech", mech, "--n", "6",
                                     "--jobs", "1"),
                UB_CHAIN_N6_RELABELLINGS, _check_ub_chain)
        for mech in ("perm", "mix")
    ]
    corr_seed = random.Random(f"{seed}/verify").randrange(2 ** 31)
    commands.append(Command("correlation", ("verify", "correlation", "--n", "7", "--graphs",
                                            str(CORRELATION_GRAPHS), "--seed", str(corr_seed),
                                            "--jobs", "1"),
                            0, _check_correlation))
    return commands


WORKLOADS = {
    "sweep": sweep_commands,
    "exact": exact_commands,
    "sample": sample_commands,
    "verify": verify_commands,
}


def build(workload: str, seed: int, inputs: Path) -> list[Command]:
    """The workload's commands; writes its input graphs under ``inputs``."""
    return WORKLOADS[workload](seed, inputs)


def check_all(commands: list[Command], results: list[tuple[int, str]],
              ctx: Optional[dict] = None) -> list[tuple[int, str]]:
    """Run every command's check in order; (command index, message) for
    each command that failed."""
    ctx = {} if ctx is None else ctx
    failures = []
    for i, (cmd, (rc, stdout)) in enumerate(zip(commands, results)):
        try:
            cmd.check(rc, stdout, ctx)
        except CheckFailed as exc:
            failures.append((i, f"{cmd.key}: {exc}"))
        except (KeyError, TypeError, ValueError) as exc:
            failures.append((i, f"{cmd.key}: malformed output ({exc!r})"))
    return failures
