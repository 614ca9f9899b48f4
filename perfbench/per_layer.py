"""Per-layer metrics of a traced run (``--trace 1``).

Three sources, kept apart by name:

* ``<layer>.calls`` / ``.self_s`` / ``.share`` — wall clock, from the
  :class:`~layers.LayerTracer` spans.  ``share`` is self time over the
  traced repetition's wall time.
* public counters of the program (``stats()``, ``io_ledger()``, the
  metrics registry, ``get_property``, server and client stats) — exact
  for a given seed, identical in traced and untraced runs;
* ``trace.*`` — the tracer's own cost and the unattributed remainder.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from layers import LAYERS
from workloads import STALL_CAUSES

#: Wrapped functions whose call counts are reported as counters.
FUNCTION_COUNTERS = {
    "sstable.builder.tables": "repro.sstable.builder:SSTableBuilder.finish",
    "net.protocol.frames": "repro.net.protocol:encode_frame",
    "version.edits_replayed": "repro.version.manifest:VersionEdit.decode",
}

#: (name, unit) of every counter and trace metric, in report order.
COUNTERS: List[Tuple[str, str]] = [
    ("core.guards.calls_per_op", "calls/op"),
    ("core.guards.guards", "count"),
    ("core.pebbles.compactions", "count"),
    ("engines.lsm.compactions", "count"),
    ("sstable.block_cache.hit_rate", "ratio"),
    ("bloom.probes", "count"),
    ("bloom.negative_rate", "ratio"),
    ("wal.bytes", "B"),
    ("sstable.builder.tables", "count"),
    ("version.manifest_bytes", "B"),
    ("version.edits_replayed", "count"),
    ("version.reopen_sim_ms", "ms"),
    ("net.protocol.frames", "count"),
    ("net.server.writes_per_group_commit", "writes/commit"),
    ("net.client.retries", "count"),
    ("sim.ledger.wal_bytes", "B"),
    ("sim.ledger.flush_bytes", "B"),
    ("sim.ledger.compaction_bytes", "B"),
    ("sim.ledger.manifest_bytes", "B"),
    ("sim.executor.jobs", "count"),
    ("sim.executor.queue_wait_sim_s", "s"),
    ("sim.executor.stall_sim_s", "s"),
    *[(f"sim.executor.stall_sim_s.{cause}", "s") for cause in STALL_CAUSES],
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_x", "x"),
    ("trace.unattributed_s", "s"),
    ("trace.unattributed_share", "ratio"),
]


def metric_units() -> List[Tuple[str, str]]:
    """Every per-layer metric name with its unit, in report order."""
    names: List[Tuple[str, str]] = []
    for layer in LAYERS:
        names += [
            (f"{layer}.calls", "count"),
            (f"{layer}.self_s", "s"),
            (f"{layer}.share", "ratio"),
        ]
    return names + COUNTERS


def per_layer_metrics(tracer, traced, plain, queue_wait_s: float) -> Dict[str, Dict]:
    """Build the ``--trace 1`` metrics from one traced and one plain rep."""
    wall = traced.wall_s
    values: Dict[str, float] = {}
    attributed = 0.0
    for layer, (calls, self_s) in tracer.layer_report().items():
        values[f"{layer}.calls"] = calls
        values[f"{layer}.self_s"] = self_s
        values[f"{layer}.share"] = self_s / wall
        attributed += self_s
    values["core.guards.calls_per_op"] = values["core.guards.calls"] / traced.attempted
    values.update(traced.counters)
    values.setdefault("net.server.writes_per_group_commit", 0.0)
    values.setdefault("net.client.retries", 0)
    function_calls = tracer.function_calls
    for name, key in FUNCTION_COUNTERS.items():
        values[name] = function_calls.get(key, 0)
    values["version.reopen_sim_ms"] = traced.sim["reopen_sim_ms"]
    values["sim.executor.queue_wait_sim_s"] = queue_wait_s
    values["trace.wall_s"] = wall
    values["trace.untraced_wall_s"] = plain.wall_s
    values["trace.overhead_x"] = wall / plain.wall_s
    values["trace.unattributed_s"] = wall - attributed
    values["trace.unattributed_share"] = (wall - attributed) / wall
    return {name: {"value": values[name], "unit": unit} for name, unit in metric_units()}
