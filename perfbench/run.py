"""Layered benchmark for leoisl.

    python3 perfbench/run.py --workload sweep-120 --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --self-check

Run from a checkout holding ``src/leoisl``. A run repeats its workload in
fresh single-threaded child processes (``perfbench/worker.py``), one at a
time, until ``--seconds`` have passed, and prints as its last stdout line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are end to end: ``setup_s`` (spawn to the
first ``leoisl.cli.main`` call) and ``peak_rss_mb`` (the repeat's
``ru_maxrss``), each the median over the run's repeats, and ``items_per_s``,
the items completed in all repeats over their summed command wall time.
The host's speed is bimodal over seconds to minutes, and a median of
per-repeat rates jumps between the two modes where a run-wide rate moves
with the share of time spent in each. With ``--trace 1`` untraced
and traced repeats alternate; the metrics are per layer (see
``tracer.py``) plus ``trace.overhead_frac``, the traced over the untraced
median command time, minus one.

An item is one unit of a workload's output: a sweep cell, an SDP/MHP pair,
a hop row or a topology snapshot. An op fails if it raises, if the CLI
exits non-zero, if its output fails the workload's checks, or if its
sha256 differs from the run's first repeat. Files go to ``.perfbench_work``
under the checkout.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

CHILD_TIMEOUT_S = 120.0
# No repeat starts that would be expected to end after this; keeps a run
# of a much slower program inside the 180 s a run may take.
RUN_LIMIT_S = 150.0
END_TO_END_UNITS = {"setup_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB"}
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class HarnessError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _spawn(name, seed, workdir, index, traced, quick) -> dict:
    report = workdir / f"report-{index}.json"
    argv = [
        sys.executable, str(HERE / "worker.py"),
        "--root", str(ROOT), "--workload", name, "--seed", str(seed),
        "--workdir", str(workdir), "--report", str(report), "--run-id", f"r{index}",
    ]  # fmt: skip
    argv += ["--traced"] * traced + ["--quick"] * quick
    env = {**os.environ, **CHILD_ENV}
    try:
        proc = subprocess.run(
            argv + ["--spawn-time", repr(time.perf_counter())],
            env=env,
            stdout=subprocess.DEVNULL,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"repeat {index} of {name} timed out after {exc.timeout} s") from exc
    if proc.returncode != 0 or not report.is_file():
        raise HarnessError(f"repeat {index} of {name} exited with code {proc.returncode}")
    return json.loads(report.read_text(encoding="utf-8"))


def run_workload(name: str, seed: int, seconds: float, trace: bool, quick: bool = False) -> dict:
    """Repeat the workload until ``seconds`` pass; return the run's report."""
    if name not in workloads.WORKLOADS:
        raise HarnessError(f"unknown workload {name!r}; choose from {', '.join(workloads.WORKLOADS)}")
    if not (ROOT / "src" / "leoisl" / "__init__.py").is_file():
        raise HarnessError(f"no leoisl sources under {ROOT / 'src'}")
    workdir = WORK / name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    repeats: list[dict] = []
    durations: list[float] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        repeats.append(_spawn(name, seed, workdir, len(repeats), trace and len(repeats) % 2 == 1, quick))
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        # Start another repeat only if the run then ends nearer to `seconds`.
        typical = statistics.median(durations)
        if len(repeats) >= (2 if trace else 1) and (
            elapsed + typical / 2 > seconds or elapsed + max(durations) > RUN_LIMIT_S
        ):
            break

    reference = {c["label"]: c["sha256"] for c in repeats[0]["commands"]}
    attempted = failed = 0
    for rep in repeats:
        rep_failed = 0
        for cmd in rep["commands"]:
            if cmd["sha256"] != reference[cmd["label"]]:
                cmd["failed"] = cmd["items"]
            attempted += cmd["items"]
            rep_failed += cmd["failed"]
        failed += rep_failed
        items = sum(c["items"] for c in rep["commands"])
        rep["items_done"] = items - rep_failed
        rep["items_per_s"] = rep["items_done"] / rep["cmd_s"]

    untraced = [r for r in repeats if not r["traced"]]
    if trace:
        traced = [r for r in repeats if r["traced"]]
        metrics, missing = tracer.layer_metrics(
            [workdir / f"spans-{r['run_id']}.json" for r in traced]
        )
        traced_s = statistics.median(r["cmd_s"] for r in traced)
        metrics["trace.wall_s"] = traced_s
        metrics["trace.overhead_frac"] = traced_s / statistics.median(r["cmd_s"] for r in untraced) - 1.0
        units = {key: _layer_unit(key) for key in metrics}
    else:
        missing = []
        metrics = {
            "setup_s": statistics.median(r["setup_s"] for r in untraced),
            "items_per_s": sum(r["items_done"] for r in untraced) / sum(r["cmd_s"] for r in untraced),
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in untraced),
        }
        units = END_TO_END_UNITS
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in sorted(metrics.items())},
        "digests": reference,
        "missing_boundaries": missing,
        "repeats": repeats,
    }


def _layer_unit(name: str) -> str:
    for suffix, unit in (("_ms", "ms"), ("_pct", "%"), ("_s", "s"), ("_ratio", "ratio"), ("_frac", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def _loadavg() -> list[float] | None:
    try:
        return [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return None


def _git(*args: str) -> str | None:
    try:
        proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _header(args) -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    toplevel = _git("rev-parse", "--show-toplevel")
    in_repo = toplevel is not None and Path(toplevel).resolve() == ROOT
    revision = _git("rev-parse", "HEAD") if in_repo else None
    status = _git("status", "--porcelain", "--untracked-files=no") if in_repo else None
    nproc = os.cpu_count()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_revision": revision,
        "git_dirty": None if status is None else bool(status),
        "loadavg_before": _loadavg(),
        "machine": (
            f"numbers come from a shared {nproc}-core box; other tenants add noise. "
            "Timed with time.perf_counter only; no CPU pinning, no machine settings changed."
        ),
    }


def self_check() -> int:
    """Every workload on tiny inputs, untraced and traced, plus negative cases."""
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text(encoding="utf-8")) if spec_path.is_file() else None
    expected = {
        0: {m["name"] for m in spec["end_to_end"]} if spec else set(END_TO_END_UNITS),
        1: {m["name"] for m in spec["per_layer"]} if spec else None,
    }
    sys.path.insert(0, str(ROOT / "src"))  # the topology checker imports leoisl
    problems = []
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            result = run_workload(name, seed=1, seconds=0, trace=bool(trace), quick=True)
            names = set(result["metrics"])
            if not result["correct"] or result["failed"]:
                problems.append(f"{name} trace={trace}: {result['failed']} failed ops on good inputs")
            if expected[trace] is not None and names != expected[trace]:
                problems.append(f"{name} trace={trace}: metrics differ from BENCHMARK.json: {sorted(names ^ expected[trace])}")
            if result["missing_boundaries"]:
                problems.append(f"{name}: missing boundaries {result['missing_boundaries']}")
        for label, failed in _negative_cases(name):
            status = "counted" if failed >= 1 else "MISSED"
            print(f"self-check: {name} corrupted {label}: {failed} failed op(s), {status}")
            if failed < 1:
                problems.append(f"{name}: corrupted {label} not counted as a failed op")
        print(f"self-check: {name} ran untraced and traced")
    for problem in problems:
        print(f"self-check FAILED: {problem}", file=sys.stderr)
    print("self-check:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


def _negative_cases(name: str):
    """Feed one deliberately corrupted output per command through its checker."""
    workdir = WORK / "negative" / name
    shutil.rmtree(workdir, ignore_errors=True)
    for command in workloads.prepare(name, 1, workdir, quick=True):
        good = (WORK / name / command.output.name).read_text(encoding="utf-8")
        bad = _corrupt(name, command.label, good)
        yield command.label, min(command.items, command.check(bad))


def _corrupt(name: str, label: str, text: str) -> str:
    lines = text.splitlines()
    if name == "sweep-120":  # swap the widest optimized/greedy pair
        rows = [line.split(",") for line in lines[1:]]
        cells = {}
        for idx, row in enumerate(rows):
            cells.setdefault((row[0], row[2], row[3]), {})[row[1]] = idx
        i, j = max(
            ((c["optimized"], c["greedy"]) for c in cells.values()),
            key=lambda ij: float(rows[ij[1]][4]) - float(rows[ij[0]][4]),
        )
        rows[i][4], rows[j][4] = rows[j][4], rows[i][4]
        return "\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n"
    if name == "track-528":  # one more delivered request than aircraft
        row = lines[1].split(",")
        row[5] = str(int(row[5]) + 1)
        return "\n".join([lines[0], ",".join(row)] + lines[2:]) + "\n"
    if label == "sdp-mhp":  # a pair counted twice
        return "\n".join(
            f"pairs_checked: {int(line.split(':')[1]) + 1}" if line.startswith("pairs_checked") else line
            for line in lines
        ) + "\n"
    if label == "hops":  # a spread that is not max - min
        idx = next(i for i, line in enumerate(lines[1:], 1) if not line.endswith(","))
        row = lines[idx].split(",")
        row[5] = str(int(row[5]) + 1)
        lines[idx] = ",".join(row)
        return "\n".join(lines) + "\n"
    # dynamic-1584: repeat an ISL of the busiest satellite past the degree cap
    isl = [(i, line.split(",")) for i, line in enumerate(lines) if ",isl_laser," in line]
    degree: dict[str, list[int]] = {}
    for i, row in isl:
        degree.setdefault(row[1], []).append(i)
        degree.setdefault(row[2], []).append(i)
    busiest = max(degree.values(), key=len)
    extra = [lines[busiest[0]]] * (5 - len(busiest))
    return "\n".join(lines[: busiest[0] + 1] + extra + lines[busiest[0] + 1 :]) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true", dest="self_check")
    args = parser.parse_args(argv)
    try:
        if args.self_check:
            return self_check()
        if args.workload is None:
            parser.error("--workload is required")
        header = _header(args)
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    header["loadavg_after"] = _loadavg()
    (WORK / args.workload / "run.json").write_text(
        json.dumps({"header": header, **result}, indent=2) + "\n", encoding="utf-8"
    )
    print(json.dumps({"header": header}))
    print(json.dumps({"sha256": result["digests"], "missing_boundaries": result["missing_boundaries"]}))
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
