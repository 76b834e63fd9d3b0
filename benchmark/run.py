"""trapmeasure benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 benchmark/run.py --workload sweep --seed 1 --seconds 30 --trace 0

The process started this way (the parent) imports nothing from the
package.  It spawns fresh interpreters of this same file in a child mode:
a few only set up (import ``trapmeasure.cli`` and build the seeded inputs)
and exit, which times set-up; the last one then runs the workload's jobs
through ``trapmeasure.cli.main`` in-process until ``--seconds`` are spent,
gates every output and reports back.  The parent prints one JSON line as
the last line of stdout and writes the full record, with host facts and
the generated inputs, under ``.benchmark_results/``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with traced passes (see ``tracing.py``) and reports the
per-layer metrics.  METRICS.md defines every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = ROOT / ".benchmark_results"
MARK = "@@bench "

SETUP_SAMPLES = 6  # fresh interpreters timed per run; the last one measures
DEADLINE_S = 170  # the whole run, children included, ends before this


def _emit(kind: str, payload: dict) -> None:
    sys.stdout.write(f"{MARK}{kind} {json.dumps(payload)}\n")
    sys.stdout.flush()


# ---------------------------------------------------------------- child side


def child(args: argparse.Namespace) -> int:
    """Set up (timed by the parent), then measure unless ``--child setup``."""
    src = ROOT / "src"
    before = len(sys.modules)
    sys.path.insert(0, str(src))
    started = time.perf_counter()
    import trapmeasure.cli

    import_s = time.perf_counter() - started
    loaded = len(sys.modules) - before
    if not Path(trapmeasure.cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"trapmeasure imported from {trapmeasure.cli.__file__}, not {src}")
    import jobs  # the benchmark's own directory is sys.path[0]

    workload = jobs.build(args.workload, args.seed)
    import numpy

    _emit("ready", {"import_s": import_s, "modules_loaded": loaded, "numpy": numpy.__version__})
    if args.child == "setup":
        return 0
    import harness

    result = harness.run(workload, args.seconds, bool(args.trace), spans_path=_spans_path(args))
    _emit("result", result)
    return 0


def _spans_path(args: argparse.Namespace) -> Path | None:
    if not args.trace:
        return None
    RESULTS.mkdir(exist_ok=True)
    return RESULTS / f"{args.workload}-seed{args.seed}-spans.tsv.gz"


# --------------------------------------------------------------- parent side


def _host() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def _loadavg() -> str:
    try:
        with open("/proc/loadavg", encoding="utf-8") as f:
            return f.read().strip()
    except OSError:
        return ""


class ChildFailed(Exception):
    pass


def _spawn(args: argparse.Namespace, mode: str, deadline: float) -> tuple[float, dict, dict | None]:
    """Start a child; return (seconds until it was set up, ready payload, result payload)."""
    argv = [
        sys.executable, str(Path(__file__).resolve()), "--child", mode,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]  # fmt: skip
    started = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    # reading stdout blocks, so a timer enforces the deadline
    killer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    killer.start()
    ready_s, messages = None, {}
    try:
        for line in proc.stdout:
            if not line.startswith(MARK):
                sys.stderr.write(line)
                continue
            kind, _, payload = line[len(MARK):].partition(" ")
            messages[kind] = json.loads(payload)
            if kind == "ready":
                ready_s = time.perf_counter() - started
        proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if time.monotonic() >= deadline:
        raise ChildFailed(f"{mode} child passed the {DEADLINE_S} s deadline")
    if proc.returncode != 0 or ready_s is None or (mode == "measure" and "result" not in messages):
        raise ChildFailed(f"{mode} child exited with {proc.returncode} before reporting")
    return ready_s, messages["ready"], messages.get("result")


def parent(args: argparse.Namespace) -> int:
    if not (ROOT / "src" / "trapmeasure" / "cli.py").is_file():
        print(f"error: no trapmeasure sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": _host(),
        "loadavg_start": _loadavg(),
    }
    setups, readies = [], []
    try:
        for _ in range(SETUP_SAMPLES - 1):
            seconds, ready, _ = _spawn(args, "setup", deadline)
            setups.append(seconds)
            readies.append(ready)
        seconds, ready, result = _spawn(args, "measure", deadline)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(seconds)
    readies.append(ready)
    record["loadavg_end"] = _loadavg()
    record["host"]["numpy"] = ready["numpy"]
    record["setup_s_samples"] = setups
    record.update(result)
    metrics = result["metrics"]
    if args.trace:
        metrics["cli.import_s"] = statistics.median(r["import_s"] for r in readies)
        metrics["cli.modules_loaded"] = ready["modules_loaded"]
    else:
        metrics["setup_s"] = statistics.median(setups)
    units = result["units"]
    units.update({"cli.import_s": "s", "cli.modules_loaded": "count", "setup_s": "s"})
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in sorted(metrics.items())},
    }
    print(json.dumps(line))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "search", "gasket"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "measure"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    return child(args) if args.child else parent(args)


if __name__ == "__main__":
    sys.exit(main())
