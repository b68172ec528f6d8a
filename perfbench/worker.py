"""One workload in one process; started by run.py, never by hand.

Prints READY once the inputs exist (run.py times set-up up to that line).
Unless --setup-only, it then prints one RESULT line of JSON:

- --trace 0: the workload's fixed number of whole passes over the pool,
  one operation after another;
- --trace 1: whole untraced and traced passes in turn, until --seconds
  have passed and at least one pair has run.

Only `workload.run` is timed; the output checks run between operations.
With --trace 0 a fixed speed probe runs after every operation, and each
operation's time is also reported at the reference speed (see `closed_loop`).
"""

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OVERRUN = 1.25         # a slow host ends a run after this many x --seconds
PROBE_MS = 1.1         # ~ the probe on a quiet 2-vCPU Xeon KVM guest
LOCAL_PROBES = 9       # probe timings at least, around each operation

_PROBE_RNG = np.random.default_rng(20210211)
_PROBE_POINTS = _PROBE_RNG.uniform(-1.0, 1.0, (64, 3))
_PROBE_Q = _PROBE_RNG.uniform(-1.0, 1.0, (3, 3))
_PROBE_Q = _PROBE_Q + _PROBE_Q.T


def probe():
    """A fixed piece of work shaped like the toolkit's inner loops: small
    numpy products and reductions, a 3x3 eigvalsh and Python arithmetic.
    Its time is the speed the host gives this process at that moment."""
    start = time.perf_counter()
    total = 0.0
    for _ in range(40):
        values = _PROBE_POINTS @ _PROBE_Q
        total += float(np.einsum("ij,ij->i", values, _PROBE_POINTS).min())
        total += float(np.linalg.eigvalsh(_PROBE_Q)[0])
        total += sum({i: i * 1.5 for i in range(20)}.values())
    return time.perf_counter() - start


def _import_slemma():
    import slemma
    origin = Path(slemma.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise SystemExit(f"slemma imported from {origin}, not from "
                         f"{ROOT / 'src'}")


class Outcomes:
    """Per-operation results; repeated operations must match the first
    run of the same pool item byte for byte."""

    def __init__(self, workload):
        self.workload = workload
        self.latencies = []
        self.failures = []
        self.first = {}              # pool index -> (fingerprint, decided)

    def run(self, index):
        item = self.workload.pool[index]
        start = time.perf_counter()
        try:
            result = self.workload.run(item)
        except Exception as exc:  # an operation that raises is a failure
            self.latencies.append(time.perf_counter() - start)
            self._fail(index, exc)
            return
        self.latencies.append(time.perf_counter() - start)
        try:
            outcome = self.workload.check(item, result)
        except Exception as exc:
            self._fail(index, exc)
            return
        if index not in self.first:
            self.first[index] = outcome
        elif self.first[index] != outcome:
            self.failures.append(f"operation {index} repeated with a "
                                 f"different output")

    def _fail(self, index, exc):
        self.failures.append(f"operation {index}: {type(exc).__name__}: "
                             f"{exc}")
        self.first.setdefault(index, (None, None))

    def decided_share(self):
        flags = [self.first[i][1] for i in range(len(self.workload.pool))]
        if all(flag is None for flag in flags):
            return None
        return sum(flag is True for flag in flags) / len(flags)

    def outputs_digest(self):
        return hashlib.sha256("\0".join(
            str(self.first[i][0]) for i in range(len(self.workload.pool))
        ).encode()).hexdigest()


def closed_loop(outcomes, seconds):
    """The workload's passes over its pool, one operation after another;
    after two passes, a run past OVERRUN x --seconds stops early.

    The speed a shared, virtualised host gives one process drifts by
    +-15% over minutes and jumps by up to 1.6x for seconds, for the
    code under test and a fixed probe alike.  So after each operation the
    probe runs `probes_per_op` times, outside the operation's timing, and
    each operation's time is also given at the reference speed: its wall
    time x PROBE_MS / the median probe time around it (LOCAL_PROBES or
    more timings from the neighbouring operations).  run.py reports each
    pool item's median over the passes, which also sets aside a burst the
    probe did not see.
    """
    workload = outcomes.workload
    size, reps = len(workload.pool), workload.probes_per_op
    deadline = time.perf_counter() + OVERRUN * seconds
    probes, passes = [], 0
    while passes < workload.passes and (
            passes < 2 or time.perf_counter() < deadline):
        for index in range(size):
            outcomes.run(index)
            probes.append([probe() for _ in range(reps)])
        passes += 1
    half = max(0, -(-(LOCAL_PROBES - reps) // (2 * reps)))
    lat = outcomes.latencies
    scaled = []
    for i, wall in enumerate(lat):
        near = [t for ts in probes[max(0, i - half):i + half + 1] for t in ts]
        scaled.append(wall * 1e-3 * PROBE_MS / statistics.median(near))

    def typical(times):
        return [1e3 * statistics.median(times[index::size])
                for index in range(size)]

    return {"latencies_ms": [1e3 * x for x in scaled],
            "typical_ms": typical(scaled),
            "wall_typical_ms": typical(lat),
            "host_speed": PROBE_MS * 1e-3 / statistics.median(
                [t for ts in probes for t in ts]),
            "passes": passes, "ops": len(lat)}


def traced_pairs(outcomes, seconds):
    from tracing import Recorder
    size = len(outcomes.workload.pool)
    deadline = time.perf_counter() + seconds
    walls = {False: [], True: []}
    recorders, missed = [], set()
    while not recorders or time.perf_counter() < deadline:
        for traced in (False, True):
            before = len(outcomes.latencies)
            if traced:
                recorder = Recorder()
                with recorder:
                    missed.update(recorder.missed_bindings())
                    for index in range(size):
                        outcomes.run(index)
                recorders.append(recorder)
            else:
                for index in range(size):
                    outcomes.run(index)
            walls[traced].append(sum(outcomes.latencies[before:]))
    counts = [r.work_counts() for r in recorders]
    return {"ops": len(outcomes.latencies), "passes": 2 * len(recorders),
            "per_layer": recorders[0].metrics(size),
            "work_counts": counts[0],
            "counts_repeat": all(c == counts[0] for c in counts),
            "missed_bindings": sorted(missed),
            "overhead_share": statistics.median(walls[True]) /
            statistics.median(walls[False]) - 1.0}


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    _import_slemma()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload](ROOT, args.seed, args.seconds)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    outcomes = Outcomes(workload)
    measure = traced_pairs if args.trace else closed_loop
    result = measure(outcomes, args.seconds)
    result.update({
        "pool": len(workload.pool),
        "failed": len(outcomes.failures),
        "failures": outcomes.failures[:20],
        "decided_share": outcomes.decided_share(),
        "outputs_sha256": outcomes.outputs_digest(),
        "numpy": sys.modules["numpy"].__version__,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
