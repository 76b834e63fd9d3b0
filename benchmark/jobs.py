"""Workloads of the trapmeasure benchmark: seeded CLI job lists and the output gate.

A workload is a fixed list of CLI jobs that one client runs in order, each
after the previous one has finished (a closed loop with one client).  Seeded
inputs come from ``random.Random(f"{workload}:{seed}")``, so a seed always
replays the same inputs.  ``tiny=True`` builds the same job types at sizes
small enough for the harness self-check (n <= 6, depth <= 3).

Every job carries a gate that raises :class:`GateError` when the job's
stdout is wrong.  Fixed jobs are compared with the pinned outputs under
``expected/``; seeded jobs are checked against bounds, the midpoint oracle
and exact recomputations.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from trapmeasure import cantor, gasket, trapezoid
from trapmeasure.exact import measure
from trapmeasure.permutations import Permutation, reversal

EXPECTED = Path(__file__).resolve().parent / "expected"

WORKLOADS = ("sweep", "search", "gasket")

# Sizes of the seeded `area` jobs: all above the numpy cutoff (48), spread so
# that a sweep whose cost grows differently with n shows on some of them.
SWEEP_SIZES = (64, 115, 166, 218, 269, 320)

# The midpoint oracle's error at these sizes was at most 1e-6 with 4096
# samples and shrinks with more; the tolerance keeps a 10x margin.
ORACLE_SAMPLES = 8192
ORACLE_TOLERANCE = 1e-5


class GateError(Exception):
    """A job's output failed its check."""


@dataclass(frozen=True)
class Job:
    """One CLI invocation and the check its stdout must pass."""

    argv: tuple[str, ...]
    check: Callable[[str], None]
    exit_code: int = 0
    label: str | None = None


@dataclass(frozen=True)
class Workload:
    """A job list plus direct calls made only in the traced run.

    ``probe`` calls public library functions from the benchmark itself,
    for layers whose per-layer metrics the CLI jobs cannot expose.
    """

    jobs: tuple[Job, ...]
    probe: Callable[[], None] | None
    inputs: dict


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise GateError(message)


_TOKEN = re.compile(r'[^\s,"{}\[\]:]+')


def _same_token(want: str, got: str) -> bool:
    if want == got:
        return True
    if not re.search(r"[.eE]", want):
        return False
    try:
        return math.isclose(float(want), float(got), rel_tol=1e-12, abs_tol=1e-300)
    except ValueError:
        return False


def pinned(name: str) -> Callable[[str], None]:
    """Gate against expected/<name>, token by token.

    Exact tokens (integers, rationals, words) must match exactly; decimal
    floats may differ in the last digits (relative 1e-12).
    """
    want = _TOKEN.findall((EXPECTED / name).read_text(encoding="utf-8"))

    def check(stdout: str) -> None:
        got = _TOKEN.findall(stdout)
        _expect(len(got) == len(want), f"{name}: {len(got)} tokens, expected {len(want)}")
        for i, (w, g) in enumerate(zip(want, got)):
            _expect(_same_token(w, g), f"{name}: token {i} is {g!r}, expected {w!r}")

    return check


def _oracle_agrees(spec: trapezoid.TrapezoidSpec, value: Fraction) -> None:
    estimate = trapezoid.area_oracle(spec, ORACLE_SAMPLES)
    _expect(
        abs(float(value) - estimate) <= ORACLE_TOLERANCE,
        f"area {float(value)} vs oracle {estimate} for n={spec.n}",
    )


def area_check(n: int, perm_text: str) -> Callable[[str], None]:
    def check(stdout: str) -> None:
        record = json.loads(stdout)
        _expect(record["n"] == n and record["perm"] == perm_text, "echoed input differs")
        value = Fraction(record["area"])
        _expect(Fraction(1, n) <= value <= 1, f"area {value} outside [1/n, 1]")
        _oracle_agrees(trapezoid.TrapezoidSpec(n, Permutation.parse(perm_text)), value)

    return check


def heuristic_check(n: int, budget: int) -> Callable[[str], None]:
    # area.__wrapped__ bypasses the lru_cache, which still holds the job's
    # own results, so the argmin area is really recomputed
    exact_area = trapezoid.area.__wrapped__

    def check(stdout: str) -> None:
        record = json.loads(stdout)
        alpha = Fraction(record["alpha"])
        argmin = Permutation.parse(record["argmin"])
        _expect(record["mode"] == "heuristic" and record["n"] == n == len(argmin), "bad record")
        _expect(1 <= record["perms_evaluated"] <= budget, "perms_evaluated outside 1..budget")
        _expect(Fraction(1, n) <= alpha <= 1, f"alpha {alpha} outside [1/n, 1]")
        spec = trapezoid.TrapezoidSpec(n, argmin)
        _expect(exact_area(spec) == alpha, "alpha is not the area of the reported argmin")
        reversal_area = exact_area(trapezoid.TrapezoidSpec(n, reversal(n)))
        _expect(alpha <= reversal_area, "alpha above the always-evaluated reversal")
        _oracle_agrees(spec, alpha)

    return check


def cantor_check(t_text: str, depth: int) -> Callable[[str], None]:
    def check(stdout: str) -> None:
        record = json.loads(stdout)
        t = Fraction(t_text)
        closed, partial = Fraction(record["closed"]), Fraction(record["partial"])
        _expect(record["t"] == str(t) and record["depth"] == depth, "echoed input differs")
        _expect(closed == cantor.cantor_measure_closed(t), "closed form differs")
        coarser = measure(cantor.partial_cantor(cantor.DigitSetSpec(depth - 1, (0, 1, t))))
        _expect(closed <= partial <= coarser <= 1, "partial measures not nested above the limit")

    return check


# a builder's jobs, its probe (None when it has none) and the probe's inputs
Built = tuple[list[Job], Callable[[], None] | None, dict]


def _random_perm(rng: random.Random, n: int) -> str:
    image = list(range(1, n + 1))
    rng.shuffle(image)
    return ",".join(map(str, image))


def _sweep(rng: random.Random, tiny: bool) -> Built:
    max_m, sigma_n, sizes = (1, 6, (5, 6)) if tiny else (6, 1000, SWEEP_SIZES)
    jobs = [
        Job(("sigma3", "--max-m", str(max_m)), pinned(f"sigma3_max_m_{max_m}.csv")),
        Job(("sigma-n", "--n", str(sigma_n)), pinned(f"sigma_n_{sigma_n}.json")),
    ]
    for n in sizes:
        perm = _random_perm(rng, n)
        jobs.append(Job(("area", "--n", str(n), "--perm", perm, "--format", "json"), area_check(n, perm)))
    return jobs, None, {}


def _search(rng: random.Random, tiny: bool) -> Built:
    n, hn, budget = (5, 6, 50) if tiny else (8, 24, 500)
    jobs = [
        Job(("alpha", "--n", str(n), "--workers", str(w)), pinned(f"alpha_{n}.json"), label=f"alpha8_w{w}")
        for w in (1, 2)
    ]
    seed = str(rng.randrange(2**31))
    argv = ("alpha", "--n", str(hn), "--heuristic", "--budget", str(budget), "--seed", seed)
    jobs.append(Job(argv, heuristic_check(hn, budget)))
    return jobs, None, {}


def _gasket(rng: random.Random, tiny: bool) -> Built:
    depth, points, depths, grid, cantor_depth, angles = (
        (2, 16, "1,2,3", 3, 3, 4) if tiny else (8, 4096, "1,2,3,4,5,6", 11, 12, 64)
    )
    jobs = [
        Job(("favard", "--depth", str(depth), "--quad-points", str(points)), pinned(f"favard_d{depth}_q{points}.txt")),
        Job(
            ("verify", "lemma1", "--depths", depths, "--t-points", str(grid)),
            pinned(f"lemma1_d{depths[0]}-{depths[-1]}_t{grid}.csv"),
            exit_code=3,  # the literal lemma 1 fails on some rows, by design
        ),
    ]
    for _ in range(3):
        q = rng.randrange(2, 13)
        t = f"{rng.randrange(1, q)}/{q}"
        argv = ("cantor", "--t", t, "--depth", str(cantor_depth), "--format", "json")
        jobs.append(Job(argv, cantor_check(t, cantor_depth)))
    thetas = [rng.uniform(0.0, math.pi) for _ in range(angles)]
    spec = gasket.GasketSpec(depth)

    def probe() -> None:
        for theta in thetas:
            gasket.project(spec, gasket.Direction.from_angle(theta))

    return jobs, probe, {"probe": {"depth": depth, "angles": thetas}}


_BUILDERS = {"sweep": _sweep, "search": _search, "gasket": _gasket}


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    """The workload's jobs and recorded inputs for one seed."""
    rng = random.Random(f"{name}:{seed}")
    jobs, probe, extra = _BUILDERS[name](rng, tiny)
    inputs = {"jobs": [list(job.argv) for job in jobs], **extra}
    return Workload(jobs=tuple(jobs), probe=probe, inputs=inputs)


def traced_argv(argv: tuple[str, ...]) -> tuple[str, ...]:
    """The job as the traced run runs it: one worker, so no span is lost in a fork."""
    out = list(argv)
    if "--workers" in out:
        out[out.index("--workers") + 1] = "1"
    return tuple(out)
