"""The benchmark's own tests: determinism, correctness checks, tracing.

Run with ``python -m pytest perfbench -q`` from the repository root.
Workloads run at a small ``scale`` so the whole file takes well under a
minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from layers import LAYERS, LayerTracer, is_restored  # noqa: E402
from per_layer import metric_units  # noqa: E402
from workloads import SEEK_NEXTS, WORKLOADS, Checker  # noqa: E402

SCALE = 0.03
SIM_METRICS = (
    "sim_kops", "sim_lat_p99_us", "write_amp", "space_amp", "read_bytes_per_op", "reopen_sim_ms"
)


def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_sim_metrics_exact_across_runs_and_tracing(name):
    first = WORKLOADS[name](7, SCALE).run()
    second = WORKLOADS[name](7, SCALE).run()
    assert set(first.sim) == set(SIM_METRICS)
    assert first.sim == second.sim
    assert first.failed == 0 and second.failed == 0
    tracer = LayerTracer()
    tracer.install()
    try:
        traced = WORKLOADS[name](7, SCALE).run()
    finally:
        tracer.uninstall()
    assert traced.sim == first.sim
    assert traced.failed == 0


def test_other_seed_gives_other_inputs():
    a = WORKLOADS["pebbles_mixed"](1, SCALE)
    b = WORKLOADS["pebbles_mixed"](2, SCALE)
    assert a.inputs(0) != b.inputs(0)
    assert a.inputs(0) != a.inputs(1)
    assert a.inputs(0) == WORKLOADS["pebbles_mixed"](1, SCALE).inputs(0)


def test_injected_wrong_value_fails_the_run(monkeypatch, capsys):
    import repro.core.pebbles as pebbles

    real_get = pebbles.PebblesDBStore.get

    def corrupt_get(self, key, snapshot=None):
        value = real_get(self, key, snapshot)
        return value[:-1] + b"!" if value else value

    monkeypatch.setattr(pebbles.PebblesDBStore, "get", corrupt_get)
    code = run.main(
        ["--workload", "pebbles_mixed", "--seconds", "0", "--scale", str(SCALE)]
    )
    out = capsys.readouterr().out
    result = _last_json(out)
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] > 0
    assert "MISMATCH: get" in out


def test_checker_catches_wrong_window_order_length_and_absence():
    ref = {b"a": b"1", b"b": b"2", b"c": b"3"}
    ordered = sorted(ref)
    ck = Checker()
    ck.window(b"a", [(b"a", b"1"), (b"b", b"2"), (b"c", b"3")], ref, ordered)
    assert ck.failed == 0
    ck.window(b"a", [(b"b", b"2"), (b"a", b"1"), (b"c", b"3")], ref, ordered)
    ck.window(b"a", [(b"a", b"1"), (b"b", b"2")], ref, ordered)
    ck.get(b"zz", b"phantom", ref)
    ck.get(b"a", None, ref)
    ck.contents([(b"a", b"1")], ref)
    assert ck.failed == 5
    assert SEEK_NEXTS == 10


def test_tracer_restores_every_wrapped_function():
    import repro.sstable.format as fmt
    import repro.util.varint as varint
    from repro.core.guards import Guard, GuardedLevel

    originals = (
        varint.decode_varint32,
        fmt.__dict__.get("decode_varint32"),
        vars(GuardedLevel)["find_guard"],
        vars(Guard)["size_bytes"],
    )
    tracer = LayerTracer()
    tracer.install()
    sites = tracer.patched_sites()
    assert len(sites) > 100
    assert varint.decode_varint32 is not originals[0]
    assert vars(GuardedLevel)["find_guard"] is not originals[2]
    assert not is_restored(sites)
    tracer.uninstall()
    assert is_restored(sites)
    assert tracer.patched_sites() == []
    after = (
        varint.decode_varint32,
        fmt.__dict__.get("decode_varint32"),
        vars(GuardedLevel)["find_guard"],
        vars(Guard)["size_bytes"],
    )
    assert all(a is b for a, b in zip(after, originals))


def test_traced_run_reports_every_per_layer_metric(capsys):
    code = run.main(
        ["--workload", "served_ycsb_a", "--trace", "1", "--scale", str(SCALE)]
    )
    result = _last_json(capsys.readouterr().out)
    assert code == 0 and result["correct"] is True
    names = [name for name, _ in metric_units()]
    assert list(result["metrics"]) == names
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    for layer in ("net.client", "net.protocol", "net.server", "core.guards", "sim.storage"):
        assert metrics[f"{layer}.calls"] > 0
    assert metrics["net.protocol.frames"] > 0
    assert metrics["trace.overhead_x"] > 0
    assert 0 <= metrics["trace.unattributed_share"] < 1


def test_benchmark_json_matches_the_command():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == dict(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _ in metric_units()]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == dict(metric_units())
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    assert len(LAYERS) * 3 < len(spec["per_layer"]) <= 128


def test_untraced_output_contract(capsys):
    code = run.main(["--workload", "leveled_mixed", "--seconds", "0", "--scale", str(SCALE)])
    result = _last_json(capsys.readouterr().out)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    for name, unit in run.END_TO_END:
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pebbles_mixed", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
