"""Quick self-check of the benchmark harness at tiny sizes (n <= 6, depth <= 3).

    python3 benchmark/selfcheck.py

Builds every workload with tiny inputs and runs it through the same code
as the benchmark, untraced and traced.  It checks that every job passes
its gate, that a wrong exit code and a wrong value in every job's output
fail it, that traced outputs equal untraced ones, that the tracer leaves
the library as it found it, and that every metric is reported.  Exits 0
when all of this holds, 1 otherwise.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import harness  # noqa: E402
import jobs  # noqa: E402
from trapmeasure import trapezoid  # noqa: E402


def _set_field(stdout: str, field: str, value: Fraction) -> str:
    record = json.loads(stdout)
    record[field] = str(value)
    return json.dumps(record, indent=2) + "\n"


def corrupt(argv: tuple[str, ...], stdout: str) -> str:
    """A well-formed output carrying a wrong value, for each job type."""
    if argv[0] == "area":
        return _set_field(stdout, "area", Fraction(json.loads(stdout)["area"]) + Fraction(1, 1000))
    if argv[0] == "alpha" and "--heuristic" in argv:
        return _set_field(stdout, "alpha", Fraction(json.loads(stdout)["alpha"]) - Fraction(1, 1000))
    if argv[0] == "cantor":
        return _set_field(stdout, "partial", Fraction(json.loads(stdout)["closed"]) - Fraction(1, 1000))
    # pinned outputs: bump the first digit, which sits in an exact token
    return re.sub(r"\d", lambda m: str((int(m.group()) + 1) % 10), stdout, count=1)


def check_workload(name: str) -> list[str]:
    problems = []
    workload = jobs.build(name, seed=7, tiny=True)
    runs = harness.run_pass([job.argv for job in workload.jobs])
    gate = harness.Gate(workload)
    for index, (job, run) in enumerate(zip(workload.jobs, runs)):
        if not gate.check(index, run):
            problems.append(f"{name}: {' '.join(job.argv)} failed its gate: {gate.failures[-1]}")
        for bad in (replace(run, exit_code=run.exit_code + 1), replace(run, stdout=corrupt(job.argv, run.stdout))):
            if gate.check(index, bad):
                problems.append(f"{name}: gate passed a wrong output of {' '.join(job.argv)}")

    area = trapezoid.area
    for trace, units in ((False, harness.END_TO_END_UNITS), (True, harness.LAYER_UNITS)):
        result = harness.run(workload, seconds=0, trace=trace)
        if result["failed"]:
            problems.append(f"{name}: trace={trace}: {result['failures']}")
        if set(result["metrics"]) != set(units):
            problems.append(f"{name}: trace={trace}: metrics {sorted(set(result['metrics']) ^ set(units))}")
    if trapezoid.area is not area:
        problems.append(f"{name}: tracer left trapezoid.area patched")

    metrics = result["metrics"]
    expected_nonzero = {
        "sweep": ("trapezoid.slice_profile_s", "trapezoid.breakpoints", "exact.integrate_plp_s"),
        "search": ("permutations.iter_s", "permutations.canonical_class_s", "search.alpha8_w2_s"),
        "gasket": ("gasket.favard_s", "gasket.per_direction_ms", "cantor.partial_cantor_s", "cantor.slice_set_s"),
    }[name]
    problems += [f"{name}: {metric} is 0" for metric in expected_nonzero if not metrics[metric]]
    if name == "search" and metrics["permutations.kept_ratio"] != 45 / 120:
        problems.append(f"search: kept_ratio {metrics['permutations.kept_ratio']}, expected 45/120")
    if name != "search" and metrics["permutations.iter_s"]:
        problems.append(f"{name}: permutations.iter_s should be 0")
    if metrics["trapezoid.area_cache_hits"]:
        problems.append(f"{name}: area cache hits on CLI traffic")
    return problems


def main() -> int:
    problems = [p for name in jobs.WORKLOADS for p in check_workload(name)]
    for problem in problems:
        print(f"FAIL {problem}")
    print("selfcheck:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
