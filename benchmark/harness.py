"""The measuring loop: run a workload's jobs in-process, gate them, reduce to metrics."""

from __future__ import annotations

import io
import resource
import statistics
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from itertools import cycle
from pathlib import Path
from time import perf_counter

import jobs as jobs_mod
import tracing
from trapmeasure import cli, trapezoid

# lru-cached; captured before any patching so cache_clear/cache_info reach it
AREA = trapezoid.area

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "trapezoid.slice_profile_s": "s",
    "trapezoid.breakpoints": "count",
    "trapezoid.breakpoints_per_s": "1/s",
    "trapezoid.area_calls": "count",
    "trapezoid.area_cache_hits": "count",
    "exact.profile_build_s": "s",
    "exact.integrate_plp_s": "s",
    "exact.profile_points": "count",
    "permutations.iter_s": "s",
    "permutations.canonical_class_s": "s",
    "permutations.kept_ratio": "ratio",
    "search.alpha8_w1_s": "s",
    "search.alpha8_w2_s": "s",
    "search.parallel_speedup": "ratio",
    "search.heuristic_unique_ratio": "ratio",
    "gasket.favard_s": "s",
    "gasket.directions": "count",
    "gasket.per_direction_ms": "ms",
    "gasket.merged_parts": "count",
    "cantor.partial_cantor_s": "s",
    "cantor.slice_set_s": "s",
    "cantor.anchors": "count",
    "cli.self_s": "s",
    "cli.jobs": "count",
    "trace.overhead_s": "s",
}


@dataclass
class JobRun:
    argv: tuple[str, ...]
    seconds: float
    cpu_s: float
    exit_code: int | None
    stdout: str
    cache_hits: int


def _cpu_s() -> float:
    """User plus system time of this process and of its reaped children (workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_job(argv: tuple[str, ...]) -> JobRun:
    """One CLI job in the program state of a fresh process: empty area cache."""
    AREA.cache_clear()
    out, err = io.StringIO(), io.StringIO()
    cpu0, t0 = _cpu_s(), perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(argv))  # looked up per call: the traced run patches it
    except Exception:  # a crash is a failed job, not a failed benchmark
        code = None
        traceback.print_exc()
    t1, cpu1 = perf_counter(), _cpu_s()
    return JobRun(argv, t1 - t0, cpu1 - cpu0, code, out.getvalue(), AREA.cache_info().hits)


def run_pass(argvs: list[tuple[str, ...]]) -> list[JobRun]:
    return [run_job(argv) for argv in argvs]


def traced_pass(workload: jobs_mod.Workload) -> tuple[list[JobRun], tracing.Tracer]:
    tracer = tracing.Tracer()
    with tracing.patched(tracer):
        runs = run_pass([jobs_mod.traced_argv(job.argv) for job in workload.jobs])
        if workload.probe is not None:
            workload.probe()
    return runs, tracer


class Gate:
    """Checks each distinct (job, exit code, stdout) once; remembers failures."""

    def __init__(self, workload: jobs_mod.Workload) -> None:
        self.jobs = workload.jobs
        self.verdicts: dict[tuple[int, int | None, str], str | None] = {}
        self.failures: list[dict] = []

    def check(self, index: int, run: JobRun, reference: JobRun | None = None) -> bool:
        """Gate an untraced run; a traced run must instead reproduce ``reference``."""
        if reference is not None:
            problem = None
            if (run.exit_code, run.stdout) != (reference.exit_code, reference.stdout):
                problem = "traced output differs from untraced output"
        else:
            key = (index, run.exit_code, run.stdout)
            if key not in self.verdicts:
                self.verdicts[key] = self._verdict(self.jobs[index], run)
            problem = self.verdicts[key]
        if problem is not None:
            self.failures.append({"argv": list(run.argv), "exit_code": run.exit_code, "problem": problem})
        return problem is None

    @staticmethod
    def _verdict(job: jobs_mod.Job, run: JobRun) -> str | None:
        if run.exit_code != job.exit_code:
            return f"exit code {run.exit_code}, expected {job.exit_code}"
        try:
            job.check(run.stdout)
        except jobs_mod.GateError as exc:
            return str(exc)
        except (ValueError, KeyError, TypeError) as exc:  # unparsable output
            return f"{type(exc).__name__}: {exc}"
        return None


def run(workload: jobs_mod.Workload, seconds: float, trace: bool, spans_path: Path | None = None) -> dict:
    """Alternate passes until ``seconds`` would be exceeded; gate; reduce.

    Untraced passes run the job list as given; with ``trace`` they alternate
    with traced passes.  At least one pass of each kind always runs.
    """
    argvs = [job.argv for job in workload.jobs]
    plain: list[list[JobRun]] = []
    traced: list[tuple[list[JobRun], tracing.Tracer]] = []
    started = perf_counter()
    for kind in cycle(("plain", "traced") if trace else ("plain",)):
        t0 = perf_counter()
        if kind == "plain":
            plain.append(run_pass(argvs))
        else:
            traced.append(traced_pass(workload))
        last = perf_counter() - t0
        if plain and (traced or not trace) and perf_counter() - started + last > seconds:
            break
    # read before gating: the gate's oracle arrays must not count as the jobs' memory
    peak_kib = max(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))

    gate = Gate(workload)
    attempted = failed = 0
    for runs in plain:
        for index, job_run in enumerate(runs):
            attempted += 1
            failed += not gate.check(index, job_run)
    for runs, _ in traced:
        for index, job_run in enumerate(runs):
            attempted += 1
            failed += not gate.check(index, job_run, reference=plain[0][index])

    result = {
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "failures": gate.failures[:20],
        "inputs": workload.inputs,
        "passes": {"plain": len(plain), "traced": len(traced)},
        "job_seconds": {" ".join(a): [r[i].seconds for r in plain] for i, a in enumerate(argvs)},
    }
    if not trace:
        result["metrics"] = {
            "wall_s": statistics.median(sum(r.seconds for r in runs) for runs in plain),
            "cpu_s": statistics.median(sum(r.cpu_s for r in runs) for runs in plain),
            "peak_rss_mb": peak_kib / 1024,  # ru_maxrss is in KiB on Linux
        }
        result["units"] = dict(END_TO_END_UNITS)
        return result

    result["metrics"] = _layer_metrics(workload, plain, traced)
    result["units"] = dict(LAYER_UNITS)
    if spans_path is not None:
        traced[-1][1].write(spans_path)
        result["spans_file"] = spans_path.name
    return result


def _layer_metrics(workload, plain, traced) -> dict[str, float]:
    job_s = {job.argv: statistics.median(runs[i].seconds for runs in plain) for i, job in enumerate(workload.jobs)}
    per_pass = []
    for runs, tracer in traced:
        metrics = tracing.layer_metrics(tracer)
        metrics["trapezoid.area_cache_hits"] = sum(r.cache_hits for r in runs)
        metrics["cli.jobs"] = len(runs)
        # like for like: a traced job is compared with the untraced job of the same argv
        metrics["trace.overhead_s"] = sum(r.seconds - job_s[r.argv] for r in runs)
        per_pass.append(metrics)
    metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    labelled = {job.label: job_s[job.argv] for job in workload.jobs if job.label}
    w1, w2 = labelled.get("alpha8_w1", 0.0), labelled.get("alpha8_w2", 0.0)
    metrics["search.alpha8_w1_s"] = w1
    metrics["search.alpha8_w2_s"] = w2
    metrics["search.parallel_speedup"] = w1 / w2 if w2 else 0.0
    return metrics
