"""contracta benchmark: closed-loop scenario runs with checked outputs.

    python3 perfbench/run.py --workload {ladder,seeded,reproduce} --seed N \
        --seconds S --trace {0,1}

Run from a source checkout; the library is imported from ``src/`` next to
this directory. One process runs one task at a time through
``contracta.scenario.run_scenario_dict`` with BLAS pinned to one thread.

``--trace 0`` runs passes over the workload's tasks until the timed region
has lasted ``--seconds`` (the first pass always completes, so every task is
timed at least once), checks every report outside the timed region and
prints the end-to-end metrics. They are computed from each task's median
time over its runs, scaled to the reference host speed (see ``hostspeed``).
``--trace 1`` runs the first pass
three times -- untraced, then traced twice with ``layertrace`` -- and prints
per-layer metrics; per-task LP and redundancy counts must repeat between the
traced passes and every result digest must match the untraced pass.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Human-readable lines
and the run environment come before it; a full record (and, when traced, the
spans) is written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import operator
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Set before numpy is first imported, here and in the import probe's child.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in _BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import hostspeed  # noqa: E402  (imports numpy)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 7
TAIL_BEYOND = 10  # tasks that must lie beyond the reported tail percentile


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("ladder", "seeded", "reproduce"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def import_library() -> bool:
    """Import contracta from this checkout's ``src``; False when the
    checkout holds no library or another copy would be imported."""
    src = ROOT / "src"
    if not (src / "contracta" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(src))
    import contracta

    return Path(contracta.__file__).resolve().parent == src / "contracta"


# Times the imports, then the host-speed kernel in the same interpreter, which
# may run on another CPU than the benchmark.
_IMPORT_PROBE = (
    "import statistics, sys, time; sys.path[:0] = sys.argv[1:]; start = time.perf_counter(); "
    "import numpy, contracta; seconds = time.perf_counter() - start; "
    "import hostspeed; kernel = hostspeed.SpeedKernel(); "
    "print(seconds, statistics.median(kernel.seconds() for _ in range(5)))"
)


def import_seconds() -> tuple[float, float]:
    """Time to import numpy and contracta in a fresh interpreter, and the
    factor that takes it to the reference host speed."""
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(ROOT / "src"), str(BENCH_DIR)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    seconds, kernel = map(float, done.stdout.split())
    return seconds, hostspeed.REFERENCE_KERNEL_S / kernel


class Record:
    """One timed run of a task; ``scale`` takes its time to the reference
    host speed."""

    __slots__ = ("task", "seconds", "digest", "problem", "results", "scale")

    def __init__(self, task, seconds, digest, problem, results):
        self.task, self.seconds, self.digest, self.problem = task, seconds, digest, problem
        self.results = results
        self.scale = 1.0


def run_task(task, tracer=None, index=-1) -> Record:
    """Run one task in the timed region; digest its results outside it."""
    import contracta.scenario

    if tracer is not None:
        tracer.start_task(index)
    start = time.perf_counter()
    try:
        report = contracta.scenario.run_scenario_dict(task.scenario)
    except Exception as exc:  # a failing task is counted, never fatal to the run
        seconds = time.perf_counter() - start
        return Record(task, seconds, None, f"raised {type(exc).__name__}: {exc}", None)
    seconds = time.perf_counter() - start
    text = json.dumps(report.results, sort_keys=True)
    return Record(task, seconds, hashlib.sha256(text.encode()).hexdigest(), None,
                  (report.results, report.warnings))


def check(record: Record, seen: dict) -> None:
    """Set ``record.problem`` from the task's check, once per distinct
    scenario; a repeat must reproduce the first digest."""
    if record.problem is not None:
        return
    key = json.dumps(record.task.scenario, sort_keys=True)
    if key in seen:
        digest, problem = seen[key]
        record.problem = problem if digest == record.digest else "results differ from an earlier run"
    else:
        try:
            record.problem = record.task.check(*record.results)
        except Exception as exc:
            record.problem = f"check raised {type(exc).__name__}: {exc}"
        seen[key] = (record.digest, record.problem)
    record.results = None


def measure(workload, seconds: float, speed: hostspeed.SpeedKernel) -> tuple[list[Record], int]:
    """Closed loop over passes until the timed region has lasted
    ``seconds``; the first pass always completes. The host-speed kernel runs
    between tasks. Returns the records and the number of passes started."""
    seen: dict = {}
    records: list[Record] = []
    timed = 0.0
    passes = 0
    before = speed.seconds()
    while passes == 0 or timed < seconds:
        for task in workload.pass_tasks(passes):
            if passes and timed >= seconds:
                break
            record = run_task(task)
            after = speed.seconds()
            record.scale = hostspeed.speed_scale(before, after)
            before = after
            timed += record.seconds
            check(record, seen)
            records.append(record)
        passes += 1
    return records, passes


def end_to_end(workload, records, passes, setup_s, info):
    """End-to-end metrics over each task's median time across its runs, at
    the reference host speed."""
    runs = {id(task): [] for task in workload.tasks}
    wall = {id(task): [] for task in workload.tasks}
    passed = {id(task): True for task in workload.tasks}
    for r in records:
        runs[id(r.task)].append(r.seconds * r.scale)
        wall[id(r.task)].append(r.seconds)
        passed[id(r.task)] = passed[id(r.task)] and r.problem is None
    times = sorted(statistics.median(v) for v in runs.values())
    wall_times = sorted(statistics.median(v) for v in wall.values())
    # Highest percentile with TAIL_BEYOND tasks beyond it.
    tail_rank = len(times) - TAIL_BEYOND
    failed = sum(r.problem is not None for r in records)
    info.update(
        passes=passes,
        task_runs=len(records),
        failed_frac=failed / len(records),
        task_tail_percentile=100.0 * tail_rank / len(times),
        task_tail_samples=len(times),
        speed_scale_median=statistics.median(r.scale for r in records),
        unscaled={
            "tasks_per_s": sum(passed.values()) / sum(wall_times),
            "task_p50_s": statistics.median(wall_times),
            "task_tail_s": wall_times[tail_rank - 1],
        },
    )
    return failed, {
        "tasks_per_s": (sum(passed.values()) / sum(times), "1/s"),
        "task_p50_s": (statistics.median(times), "s"),
        "task_tail_s": (times[tail_rank - 1], "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def traced(workload, info, out_stem):
    from layertrace import LayerTracer

    tasks = workload.pass_tasks(0)
    seen: dict = {}
    untraced = []
    for task in tasks:
        record = run_task(task)
        check(record, seen)
        untraced.append(record)
    passes = []
    for _ in range(2):
        with LayerTracer() as tracer:
            records = [run_task(task, tracer, i) for i, task in enumerate(tasks)]
        passes.append((tracer, records, sum(r.seconds for r in records)))

    problems = [r.problem for r in untraced]
    (first, first_records, first_wall), (second, second_records, _) = passes
    info["tasks"] = []
    for i, task in enumerate(tasks):
        digests = {untraced[i].digest, first_records[i].digest, second_records[i].digest}
        if problems[i] is None and len(digests) != 1:
            problems[i] = "traced results differ from untraced results"
        if problems[i] is None and first.tasks[i].key() != second.tasks[i].key():
            problems[i] = "layer counts differ between traced passes"
        info["tasks"].append(
            {"name": task.name, "counts": list(first.tasks[i].key()), "problem": problems[i]}
        )
    untraced_wall = sum(r.seconds for r in untraced)
    self_sum = first.total_self_s()
    metrics = first.metrics()
    metrics["trace.wall_s"] = (first_wall, "s")
    metrics["trace.overhead_s"] = (first_wall - untraced_wall, "s")
    metrics["bench.self_s"] = (first_wall - self_sum, "s")
    info.update(untraced_wall_s=untraced_wall, layer_self_sum_s=self_sum,
                trace_overhead_s=first_wall - untraced_wall, spans=len(first.spans))
    first.write_spans(OUT_DIR / f"{out_stem}-spans.csv.gz")
    failed = sum(p is not None for p in problems)
    for i, p in enumerate(problems):
        if p is not None:
            print(f"FAILED {tasks[i].name}: {p}")
    return 3 * len(tasks), failed, metrics


def environment(args) -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in _BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not import_library():
        print(f"contracta sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import workloads

    speed = hostspeed.SpeedKernel()
    import_times, import_scales, build_times, build_scales = [], [], [], []
    for _ in range(SETUP_REPEATS):
        seconds, scale = import_seconds()
        import_times.append(seconds)
        import_scales.append(scale)
        before = speed.seconds()
        start = time.perf_counter()
        workload = workloads.Workload(args.workload, args.seed)
        build_times.append(time.perf_counter() - start)
        build_scales.append(hostspeed.speed_scale(before, speed.seconds()))
    setup_s = statistics.median(map(operator.mul, import_times, import_scales)) + statistics.median(
        map(operator.mul, build_times, build_scales)
    )

    OUT_DIR.mkdir(exist_ok=True)
    out_stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    info = {
        "env": environment(args),
        "setup_import_s": import_times,
        "setup_import_scale": import_scales,
        "setup_build_s": build_times,
        "setup_build_scale": build_scales,
    }
    if args.trace:
        attempted, failed, metrics = traced(workload, info, out_stem)
    else:
        records, passes = measure(workload, args.seconds, speed)
        attempted = len(records)
        failed, metrics = end_to_end(workload, records, passes, setup_s, info)
        info["tasks"] = [
            {"name": r.task.name, "seconds": r.seconds, "scale": r.scale, "problem": r.problem}
            for r in records
        ]
        for r in records:
            if r.problem is not None:
                print(f"FAILED {r.task.name}: {r.problem}")
    info["env"]["trace_overhead_s"] = info.get("trace_overhead_s")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"tasks {attempted}  failed {failed}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit}")
    if not args.trace:
        print(f"  {'failed_frac':<44} {info['failed_frac']:>14.6g} ratio")
        print(f"  task_tail_s is the p{info['task_tail_percentile']:.1f} of the median times of "
              f"{info['task_tail_samples']} tasks over {info['task_runs']} task runs "
              f"in {info['passes']} passes")
        print(f"  times are at the reference host speed; the median scale was "
              f"{info['speed_scale_median']:.4f}, and unscaled: "
              + ", ".join(f"{k} {v:.6g}" for k, v in info["unscaled"].items()))
    else:
        print(f"  accounting: layer self {info['layer_self_sum_s']:.4f} s + bench "
              f"{metrics['bench.self_s'][0]:.4f} s = traced wall {metrics['trace.wall_s'][0]:.4f} s")
    print("env " + json.dumps(info["env"], sort_keys=True))

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    info["result"] = result
    (OUT_DIR / f"{out_stem}.json").write_text(json.dumps(info, indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
