"""qhistories benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload paper_cli --seed 1 --seconds 30 --trace 0

One client in one process replays a fixed, seeded pass of ops, after one
warm-up pass, in whole passes until `--seconds` have elapsed; every op's
output is checked.  `--trace 0` prints the end-to-end metrics, `--trace 1`
the per-layer ones from a run that alternates untraced and traced passes.  The last line of
stdout is the result as JSON; the line before it records the environment.
Run it from the root of a source checkout: it imports `src/qhistories`.
"""

from __future__ import annotations

import os

# Pinned before numpy loads, in this process and in the cold-start children.
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_STARTS = 15
IMPORT_SAMPLES = 5
READY = "ready"
#: A run times every op at least this many times.
MIN_PASSES = 5
#: Every workload's pass holds at least this many ops, so that at least
#: MIN_BEYOND of them lie beyond the 90th percentile; the tests check it.
MIN_OPS = 100
MIN_BEYOND = 10


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def import_library() -> None:
    """Import qhistories from this checkout's sources, never from elsewhere."""
    if not (SRC / "qhistories" / "__init__.py").is_file():
        raise SystemExit(f"error: no qhistories sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qhistories

    if Path(qhistories.__file__).resolve().parent != SRC / "qhistories":
        raise SystemExit(f"error: imported qhistories from {qhistories.__file__}")


def cold_start(workload: str, seed: int) -> float:
    """Seconds from launching a fresh interpreter to its first op being
    ready: imports, input generation and the inputs' self-checks."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=_child_env(), cwd=ROOT, text=True)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait()
    if line.strip() != READY or code != 0:
        raise SystemExit(f"error: cold-start setup failed (exit {code})")
    return ready - start


def import_split() -> tuple[float, float]:
    """(numpy, qhistories without numpy) cumulative import ms, as
    `python -X importtime` reports them; medians of several runs."""
    numpy_ms, own_ms = [], []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import qhistories"],
            capture_output=True, text=True, env=_child_env(), cwd=ROOT, check=True,
        )
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) / 1e3
        numpy_ms.append(cumulative["numpy"])
        own_ms.append(cumulative["qhistories"] - cumulative["numpy"])
    return statistics.median(numpy_ms), statistics.median(own_ms)


class Loop:
    """Runs ops, times each call, checks each output, counts outcomes.
    Each pass keeps one latency per op, None where the op failed."""

    def __init__(self):
        self.passes: list[list[float | None]] = []
        self.attempted = 0
        self.failed = 0
        self.errors: dict[str, int] = {}

    @property
    def latencies(self) -> list[float]:
        return [x for p in self.passes for x in p if x is not None]

    def run_pass(self, ops, tracer=None) -> None:
        """One pass over `ops`; with a tracer, spans carry the op's number."""
        self.passes.append([])
        for op in ops:
            if tracer is not None:
                tracer.op = self.attempted
            self.run(op)

    def run(self, op) -> None:
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = op.run()
            latency = time.perf_counter() - start
            op.check(result)
        except Exception as err:  # an undocumented outcome or a wrong output
            latency = None
            self._fail(op, err)
        self.passes[-1].append(latency)

    def _fail(self, op, err) -> None:
        self.failed += 1
        key = f"{op.kind}: {type(err).__name__}: {err}"[:200]
        self.errors[key] = self.errors.get(key, 0) + 1



def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def git_sha() -> str:
    """HEAD of the checkout, read from its own .git; "unknown" without one."""
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
    return "unknown"


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": int(BLAS_THREADS),
        "git_sha": git_sha(),
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def summarize(loop: Loop) -> dict:
    """Throughput and latencies in ms, from each op's fastest replay.

    Every pass replays the same ops, so each op is timed once per pass.  All
    three figures use each op's fastest replay in the run, as `timeit` does:
    load from other tenants of a shared machine only ever slows an op, so
    the fastest replay is the op's own cost.  `latency_p50_ms` and `latency_p90_ms` are nearest-rank
    percentiles over the ops of one pass, not over replays; `beyond_p90`
    counts the ops above the 90th.  `replay_p90_ms`, the 90th percentile
    over every replay, moves with the load on the machine; it is reported
    on the environment line only.
    """
    best = []
    for replays in zip(*loop.passes):
        timed = [x for x in replays if x is not None]
        if timed:
            best.append(min(timed) * 1e3)
    p90 = percentile(best, 0.9)
    return {
        "ops_per_s": len(best) / sum(best) * 1e3,
        "latency_p50_ms": statistics.median(best),
        "latency_p90_ms": p90,
        "passes": len(loop.passes),
        "ops_per_pass": len(best),
        "beyond_p90": sum(1 for x in best if x > p90),
        "replay_p90_ms": percentile([x * 1e3 for x in loop.latencies], 0.9),
    }


def end_to_end(wl, args) -> tuple[list[Loop], dict, dict]:
    """Whole passes until `seconds` have elapsed and at least MIN_PASSES
    passes ran.  The SETUP_STARTS cold starts are spread evenly over the
    run, between passes, so that a short spell of load on the machine meets
    few of them."""
    loop = Loop()
    setup: list[float] = []
    start = time.perf_counter()
    interval = args.seconds / SETUP_STARTS
    while True:
        while len(setup) < SETUP_STARTS and time.perf_counter() >= start + len(setup) * interval:
            setup.append(cold_start(args.workload, args.seed))
        loop.run_pass(wl.ops)
        if (time.perf_counter() >= start + args.seconds and len(setup) == SETUP_STARTS
                and len(loop.passes) >= MIN_PASSES):
            break
    stats = summarize(loop)
    metrics = {"setup_s": metric(statistics.median(setup), "s")}
    for name in ("ops_per_s", "latency_p50_ms", "latency_p90_ms"):
        metrics[name] = metric(stats.pop(name), "1/s" if name == "ops_per_s" else "ms")
    metrics["peak_rss_mb"] = metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return [loop], metrics, {**stats, "setup_samples_s": setup}


def per_layer(wl, args) -> tuple[list[Loop], dict, dict]:
    """Alternate untraced and traced passes; layer metrics are per traced op."""
    import spans
    import workloads

    tracer = spans.Tracer()
    plain, traced = Loop(), Loop()
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline or not traced.attempted:
        plain.run_pass(wl.ops)
        tracer.install()
        try:
            traced.run_pass(wl.ops, tracer)
        finally:
            tracer.uninstall()
    numpy_ms, own_ms = import_split()
    layers = spans.layer_metrics(tracer.names, tracer.arrays(), traced.attempted)
    layers["import.numpy_ms"] = numpy_ms
    layers["import.qhistories_ms"] = own_ms
    layers["cli.known_defects_open"] = workloads.known_defects_open()
    layers["trace.overhead"] = summarize(plain)["ops_per_s"] / summarize(traced)["ops_per_s"]
    OUT_DIR.mkdir(exist_ok=True)
    trace_file = OUT_DIR / f"spans-{args.workload}-{args.seed}.npz"
    tracer.write(trace_file)
    info = {"traced_ops": traced.attempted, "spans": len(tracer),
            "span_file": str(trace_file.relative_to(ROOT))}
    return [plain, traced], {name: metric(value, _unit(name)) for name, value in layers.items()}, info


def _unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name in ("histories.chain_kets_per_history", "probes.branches_kept_ratio", "trace.overhead"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_library()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload](args.seed)
    if args.setup_only:
        print(READY, flush=True)
        return 0

    warm = Loop()
    warm.run_pass(wl.ops)
    loops, metrics, info = (per_layer if args.trace else end_to_end)(wl, args)
    loops.append(warm)
    failed = sum(loop.failed for loop in loops)
    for loop in loops:
        for key, count in loop.errors.items():
            print(f"failure x{count}: {key}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "env": environment(), **info}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(loop.attempted for loop in loops),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
