"""Tests of the benchmark itself: run with `python3 -m pytest perfbench`."""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from run import MIN_BEYOND, MIN_OPS, Loop, summarize  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "0.2", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    info, result = proc.stdout.strip().splitlines()[-2:]
    return json.loads(info), json.loads(result)


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_emits_every_metric_and_passes_its_checks(workload, trace):
    info, result = run_bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: v["unit"] for name, v in result["metrics"].items()
    }
    for name, v in result["metrics"].items():
        assert isinstance(v["value"], (int, float)) and np.isfinite(v["value"]), name
        if not trace:
            assert v["value"] > 0, name
    if not trace:
        assert info["ops_per_pass"] >= MIN_OPS and info["beyond_p90"] >= MIN_BEYOND


def _fingerprint(seed: int) -> list:
    """Every generated number and label of the three workloads' inputs."""
    hist = inputs.histories_inputs(seed)
    out = [st.matrix for dyn in hist.dyns.values() for st in dyn.steps]
    for tf in hist.trees:
        out.append(tf.initial.amplitudes)
        out += [p.matrix for parts in tf.levels.values() for p in parts]
    out.append(hist.complete.initial.amplitudes)
    probes = inputs.probes_inputs(seed)
    out += [st.matrix for st in probes.dyn.steps] + [probes.initial.amplitudes]
    out += [sorted(p.couplings) for case in probes.cases for p in case.probes]
    out += [case.sample_seed for case in probes.cases]
    out += inputs.cli_inputs(seed)
    return out


def _same(a: list, b: list) -> bool:
    return len(a) == len(b) and all(
        np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y for x, y in zip(a, b)
    )


def test_same_seed_gives_identical_inputs():
    assert _same(_fingerprint(7), _fingerprint(7))


def test_different_seed_gives_different_inputs():
    a, b = _fingerprint(7), _fingerprint(8)
    assert not _same(a, b)
    assert inputs.cli_inputs(7) != inputs.cli_inputs(8)


def test_designed_verdicts_hold():
    hist = inputs.histories_inputs(3)
    kinds = [tf.kind for tf in hist.trees]
    assert kinds.count("decohering") == kinds.count("haar") == len(inputs.HIST_SIZES)
    for tf in hist.trees:
        if tf.consistent:
            assert tf.gram_offdiag <= inputs.CONSISTENT_MAX
            assert abs(tf.weights.sum() - 1) <= inputs.WEIGHT_SUM_TOL
        else:
            assert tf.gram_offdiag >= inputs.INCONSISTENT_MIN


def test_undocumented_exception_fails_the_op():
    def boom():
        raise ValueError("vanishing")

    loop = Loop()
    loop.run_pass([
        workloads.Op("x", boom, lambda r: None),
        workloads.Op("y", lambda: 1, lambda r: workloads.expect(r == 2, "wrong")),
        workloads.Op("z", lambda: 2, lambda r: workloads.expect(r == 2, "wrong")),
    ])
    assert (loop.attempted, loop.failed, len(loop.latencies)) == (3, 2, 1)
    assert sorted(loop.errors) == ["x: ValueError: vanishing", "y: CheckFailed: wrong"]


def test_latencies_use_each_ops_fastest_replay():
    loop = Loop()
    loop.passes = [
        [i * 1e-3 for i in range(1, 11)],
        [2 * i * 1e-3 for i in range(1, 10)] + [5e-3],
    ]
    stats = summarize(loop)
    # fastest replays: 1..9 ms, and 5 ms for the last op
    assert stats["ops_per_s"] == pytest.approx(10 / 50e-3)
    assert stats["latency_p50_ms"] == pytest.approx(5)
    assert stats["latency_p90_ms"] == pytest.approx(8)
    assert (stats["ops_per_pass"], stats["beyond_p90"]) == (10, 1)
    assert stats["replay_p90_ms"] == pytest.approx(14)


def test_tracer_records_nested_spans_and_restores_the_library():
    import qhistories as qh
    from qhistories import histories

    original = histories.transport
    tracer = spans.Tracer()
    wl = workloads.HistoriesScale(2)
    tf = wl.inp.trees[0]
    tracer.install()
    try:
        assert histories.transport is not original
        tracer.op = 0
        qh.consistency_check(tf.dyn, tf.family)
    finally:
        tracer.uninstall()
    assert histories.transport is original
    n = len(tf.family.histories)
    metrics = spans.layer_metrics(tracer.names, tracer.arrays(), 1)
    assert metrics["histories.chain_ket_calls"] == n
    assert metrics["histories.chain_kets_per_history"] == 1.0
    assert metrics["histories.pair_overlaps"] == n * (n - 1) / 2
    assert metrics["histories.consistency_ms"] > 0


def test_every_traced_span_counts_in_one_self_time_metric():
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    assigned = [name for names in spans.SELF_TIME.values() for name in names]
    assert len(assigned) == len(set(assigned))
    assert set(tracer.names) <= set(assigned)


@pytest.mark.parametrize("workload, kind", [("histories_scale", "refine"), ("paper_cli", "paper-suite")])
def test_self_times_add_up_to_the_traced_op(workload, kind):
    wl = workloads.WORKLOADS[workload](4)
    op = next(o for o in wl.ops if o.kind == kind)
    op.check(op.run())
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.op = 0
        start = time.perf_counter()
        result = op.run()
        elapsed_ms = (time.perf_counter() - start) * 1e3
    finally:
        tracer.uninstall()
    op.check(result)
    metrics = spans.layer_metrics(tracer.names, tracer.arrays(), 1)
    self_ms = sum(metrics[name] for name in spans.SELF_TIME)
    assert 0.8 * elapsed_ms <= self_ms <= elapsed_ms
    called = {tracer.names[i] for i in tracer.arrays()["name_id"]}
    if kind == "refine":
        assert "histories.refine" in called
        assert metrics["histories.refine_ms"] > 0
    else:
        assert {"mzi.build_nested_mzi", "dynamics.Dynamics.__post_init__"} <= called
        assert metrics["mzi.build_ms"] > 0 and metrics["dynamics.construct_ms"] > 0


def test_known_defects_are_counted():
    assert 0 <= workloads.known_defects_open() <= len(inputs.KNOWN_DEFECTS)
