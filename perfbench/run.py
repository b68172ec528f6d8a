"""slemma benchmark: one workload per fresh single-threaded process.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S \
        --trace 0|1

Run from the root of a checkout; the toolkit is imported from its `src`.
Set-up is timed several times per run in separate processes and reported
as the median.  Operation times are given at a reference host speed, set
by a fixed probe timed around each operation (see worker.closed_loop); the
plain wall-time figures are printed too, as `*_wall`.  The last line of
standard output is one JSON object: end-to-end metrics with --trace 0,
per-layer metrics with --trace 1.
Workloads, layers and the held-out seed are described in design.json.
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench_state"
SETUP_REPEATS = 11     # timings: 5 set-up-only workers, the measuring one, 5
P90_MIN_SAMPLES = 100
WORKER_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    pass


def _design():
    with open(HERE / "design.json", encoding="utf-8") as fh:
        return json.load(fh)


def _environment():
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def _run_worker(args, setup_only):
    """Start a worker; return (seconds until READY, RESULT dict or None)."""
    command = [sys.executable, str(HERE / "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        command.append("--setup-only")
    started = time.perf_counter()
    proc = subprocess.Popen(command, cwd=ROOT, env=_environment(),
                            stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    watchdog.start()
    ready, result = None, None
    try:
        for line in proc.stdout:
            if line == "READY\n" and ready is None:
                ready = time.perf_counter() - started
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
    except BaseException:
        proc.kill()
        raise
    finally:
        watchdog.cancel()
        proc.stdout.close()
        code = proc.wait()
    if code != 0 or ready is None or (result is None and not setup_only):
        raise BenchError(f"worker for {args.workload} exited with {code}")
    return ready, result


def _source_digest():
    """Identifies the code under test and the benchmark, so recorded
    counts are only compared between runs of the same code."""
    digest = hashlib.sha256()
    for base in (SRC / "slemma", HERE):
        for path in sorted(base.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _repeat_check(args, record):
    """Compare this run's exact counts with an earlier run of the same
    code, workload, seed, length and trace mode; returns the differences."""
    STATE.mkdir(exist_ok=True)
    path = STATE / (f"{_source_digest()}-{args.workload}-{args.seed}-"
                    f"{args.seconds}-{args.trace}.json")
    if path.exists():
        with open(path, encoding="utf-8") as fh:
            earlier = json.load(fh)
        return sorted(k for k in set(earlier) | set(record)
                      if earlier.get(k) != record.get(k))
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(record, fh, sort_keys=True)
    os.replace(tmp, path)
    return []


def _trimmed_rate(typical_ms):
    """Operations per second from per-item typical times, 5% trimmed at
    each end: a rare instance 50x slower than the rest (p1_random's
    occasional Undetermined verdict) would otherwise decide the figure by
    whether the seed drew one; pools under 20 keep all."""
    typical = sorted(typical_ms)
    trim = len(typical) // 20
    core = typical[trim:len(typical) - trim]
    return 1e3 * len(core) / sum(core)


def _end_to_end(result, setup_s):
    typical, lat = result["typical_ms"], result["latencies_ms"]
    wall = result["wall_typical_ms"]
    metrics = {
        "instances_per_s": (_trimmed_rate(typical), "1/s"),
        "latency_p50_ms": (statistics.median(typical), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    extra = {"instances_per_s_untrimmed": (
                 1e3 * len(typical) / sum(typical), "1/s"),
             "instances_per_s_wall": (_trimmed_rate(wall), "1/s"),
             "latency_p50_ms_wall": (statistics.median(wall), "ms"),
             "host_speed": (result["host_speed"], "ratio"),
             "failed_share": (result["failed"] / result["ops"], "ratio")}
    if len(lat) >= P90_MIN_SAMPLES:
        extra["latency_p90_ms"] = (statistics.quantiles(lat, n=10)[-1], "ms")
    if result["decided_share"] is not None:
        extra["decided_share"] = (result["decided_share"], "ratio")
    return metrics, extra


def _self_check(design, workload, per_layer):
    """Per-layer metrics that read zero on a workload meant to move them."""
    return [name for row in design["per_layer"]
            if workload in row["mechanism"]
            for name in row["metrics"] if per_layer[name][0] == 0]


def run_workload(args, design):
    """Returns (correct, attempted, failed, metrics, extra, notes)."""
    # set-up timed before and after the run: a shared host's speed drifts
    setups = [_run_worker(args, True)[0] for _ in range(SETUP_REPEATS // 2)]
    ready, result = _run_worker(args, False)
    setups += [_run_worker(args, True)[0] for _ in range(SETUP_REPEATS // 2)]
    setup_s = statistics.median(setups + [ready])
    notes = list(result["failures"])
    record = {"pool": result["pool"], "decided_share": result["decided_share"],
              "outputs": result["outputs_sha256"]}
    extra = {}
    if args.trace:
        metrics = dict(result["per_layer"])
        metrics["trace.overhead_share"] = (result["overhead_share"], "ratio")
        record.update(result["work_counts"])
        notes += [f"unwrapped binding: {name}"
                  for name in result["missed_bindings"]]
        notes += [f"per-layer metric reads zero on its mechanism workload: "
                  f"{name}" for name in
                  _self_check(design, args.workload, metrics)]
        if not result["counts_repeat"]:
            notes.append("work counts differ between traced passes")
    else:
        metrics, extra = _end_to_end(result, setup_s)
    notes += [f"differs from an earlier run of the same seed: {key}"
              for key in _repeat_check(args, record)]
    info = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": result["numpy"], "pool": result["pool"],
            "operations": result["ops"], "passes": result["passes"],
            "setup_samples": len(setups) + 1}
    if not args.trace:
        info.update({"p50_samples": result["pool"],
                     "p90_samples": len(result["latencies_ms"])})
    print("info " + json.dumps(info))
    correct = result["failed"] == 0 and not notes
    return correct, result["ops"], result["failed"], metrics, extra, notes


def _print_metrics(workload, metrics):
    for name, (value, unit) in metrics.items():
        print(f"{workload:18s} {name:48s} {value:14.6g} {unit}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit, so the running worker is killed too
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "slemma" / "__init__.py").is_file():
        print(f"error: no slemma sources under {SRC}", file=sys.stderr)
        return 2
    design = _design()
    names = list(design["workloads"]) if args.workload == "all" \
        else [args.workload]
    unknown = [n for n in names if n not in design["workloads"]]
    if unknown or args.seconds < 1:
        print(f"error: unknown workload {unknown} or --seconds < 1",
              file=sys.stderr)
        return 2

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        one = argparse.Namespace(**{**vars(args), "workload": name})
        try:
            correct, attempted, failed, metrics, extra, notes = \
                run_workload(one, design)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        for note in notes:
            print(f"{name}: check failed: {note}")
        _print_metrics(name, {**metrics, **extra})
        summary["correct"] &= correct
        summary["attempted"] += attempted
        summary["failed"] += failed
        prefix = f"{name}." if len(names) > 1 else ""
        summary["metrics"].update(
            {prefix + k: {"value": v, "unit": u}
             for k, (v, u) in metrics.items()})
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
