"""Byte-identity pins for the read path of both LSM engines.

Every configuration below runs one seeded put/delete fill (with a
``compact_range`` half way and a snapshot held from three quarters on)
that leaves every level populated and, for FLSM, several guards holding
more than one sstable.  A read-only phase follows; no write happens
while an iterator is open:

* gets that hit, miss, land on a tombstone, or read through the snapshot;
* ``seek`` followed by k ``next()`` calls (plain and through the snapshot);
* ``seek_reverse`` with a bound followed by k ``next()`` calls;
* full forward and reverse scans.

The test pins:

* a digest of every result,
* a digest of the simulated clock after each read,
* the per-level ``read.files_probed`` / ``read.bloom_skipped`` counters,
* a digest of the span trace of a second read phase run with
  ``enable_tracing`` on (span names, attributes and sim timestamps).

Probe order, bloom screening, seek positioning charges and seek-compaction
bookkeeping all feed the clock pin, so a refactor of the read path that
is not charge-for-charge behaviour preserving fails here.  The pins are
data, not tuning: a deliberate behaviour change recomputes them with
``PYTHONPATH=src:. python tests/test_read_path_identity.py`` and says
so.
"""

from __future__ import annotations

import hashlib
import io
import random
from typing import Dict, List, Tuple

import pytest

import repro
from repro.obs.trace import TraceSink
from tests.conftest import tiny_options

KiB = 1024
FILL_OPS = 2400
KEYS = 800
READS = 500
TRACED_READS = 150
#: Small files and a short, shallow tree, so a short fill populates
#: every level of every preset.
SHAPE = dict(
    num_levels=4,
    level1_max_bytes=16 * KiB,
    level_size_multiplier=3,
    target_file_bytes=2 * KiB,
)
VLOG = dict(value_separation_bytes=64, vlog_segment_bytes=4 * KiB)

#: name -> (engine, option overrides)
CONFIGS: Dict[str, Tuple[str, dict]] = {
    "leveldb": ("leveldb", {}),
    "hyperleveldb": ("hyperleveldb", {}),
    "rocksdb": ("rocksdb", {}),
    "pebblesdb": ("pebblesdb", {}),
    "hyperleveldb-vlog": ("hyperleveldb", VLOG),
    "pebblesdb-vlog": ("pebblesdb", VLOG),
    "pebblesdb-serial-seeks": ("pebblesdb", {"enable_parallel_seeks": False}),
}

#: name -> (results digest, clock digest, final sim clock,
#:          per-level (files_probed, bloom_skipped), trace digest)
PINS: Dict[str, tuple] = {
    'leveldb': ('5fb839348c584073490ebfd9819478c0c6227a6a8668807d90762838c6849e8a', '20b77fd7ce78e6faa490e67621ed969c8dc0ee1764101c39dfa34c9b8765a357', 0.08037784204588308, ((38, 394), (24, 96), (69, 114), (96, 33)), 'f2a5ff5370c9e1988746ec434fbf4b314a1e0172d21f19309e2a8a4e198fc1ff'),
    'hyperleveldb': ('5fb839348c584073490ebfd9819478c0c6227a6a8668807d90762838c6849e8a', 'a637763b18f07d4fa90a6b6664cc9c2524d90312f85a3476c0c8c89251f844d2', 0.07899038916265312, ((38, 394), (13, 38), (92, 83), (84, 36)), 'a2dea70a7d199984a7e484fc55574b16f55676deb19ab90a970e46320e030e85'),
    'rocksdb': ('5fb839348c584073490ebfd9819478c0c6227a6a8668807d90762838c6849e8a', 'a3767b0922a3ce37b878cf8d7c340b9e9ab1d0b66ea7b159804a75dc5cd3579d', 0.08238037517525329, ((38, 392), (27, 67), (83, 50), (76, 29)), 'c33b3e306ef5892b4f1398dff271d63164e969e92d898e2d4bdcf1373f4c0c99'),
    'pebblesdb': ('5fb839348c584073490ebfd9819478c0c6227a6a8668807d90762838c6849e8a', 'e46e40e2af5fff1b31c31eef3645f2ee4945602b5c19edfe6ccc2fbea1099a06', 0.09889994326929674, ((38, 394), (20, 54), (76, 72), (136, 43)), 'ee06d1f339038957b89ca2e1c3a2c3fc1dcb6d1dc0b0be70737bcd7a9faa9cc0'),
    'hyperleveldb-vlog': ('5fb839348c584073490ebfd9819478c0c6227a6a8668807d90762838c6849e8a', '0a699f89fb67da0ebde775dca751682d444e4c272a72b57f430fa34b1013ffd7', 0.09445449716926466, ((35, 176), (75, 118), (105, 34), (12, 8)), 'e018e788ee8e71f935cc1d87d7b34b18290a690bf7889c2f707b4823296f5aea'),
    'pebblesdb-vlog': ('5fb839348c584073490ebfd9819478c0c6227a6a8668807d90762838c6849e8a', 'ea50f492f6f7e687d320d2b6238578a63289c4270f88bd4bcfd5f3352b499b26', 0.10639054014971355, ((31, 176), (36, 49), (82, 31), (77, 22)), 'e6d1ea3a37e1b2b9c1d000f80cc17651ad50ff828030b77373a13a5a4be93d35'),
    'pebblesdb-serial-seeks': ('5fb839348c584073490ebfd9819478c0c6227a6a8668807d90762838c6849e8a', 'e84241528f3368976477963983c421dd79445842b760a9e6e54e96b292160af0', 0.09875194326929712, ((38, 394), (20, 54), (76, 72), (136, 43)), '7d57961782caa5eec44d668ccd6a240b4f62a57bf8c36dfecbbd4116ada6c98f'),
}


def _key(i: int) -> bytes:
    return b"k%06d" % i


def _fill(db, rng: random.Random):
    """Seeded fill; returns (model, snapshot, model at the snapshot)."""
    model: Dict[bytes, bytes] = {}
    snapshot = snap_model = None
    for i in range(FILL_OPS):
        key = _key(rng.randrange(KEYS))
        if rng.random() < 0.85:
            value = bytes([rng.randrange(97, 123)]) * rng.choice((16, 48, 96, 200))
            db.put(key, value)
            model[key] = value
        else:
            db.delete(key)
            model.pop(key, None)
        if i == FILL_OPS // 2:
            db.compact_range(_key(KEYS // 4), _key(KEYS // 2))
        if i == 3 * FILL_OPS // 4:
            snapshot, snap_model = db.get_snapshot(), dict(model)
    return model, snapshot, snap_model


def _window(it, k: int) -> List[Tuple[bytes, bytes]]:
    got = []
    with it:
        while it.valid and len(got) <= k:
            got.append((it.key(), it.value()))
            if len(got) <= k:
                it.next()
    return got


def _reads(db, env, rng, n, model, snapshot, snap_model, results, clocks) -> None:
    """``n`` seeded reads, each checked against the model."""
    ordered = sorted(model)
    snap_ordered = sorted(snap_model)
    absent = [_key(i) for i in range(KEYS) if _key(i) not in model]
    for _ in range(n):
        r = rng.random()
        k = rng.randrange(1, 20)
        if r < 0.2:
            key = rng.choice(ordered)
            got = db.get(key)
            assert got == model[key]
        elif r < 0.3:
            key = b"m%06d" % rng.randrange(KEYS)  # never written
            got = db.get(key)
            assert got is None
        elif r < 0.4:
            key = rng.choice(absent)  # deleted or never written
            got = db.get(key)
            assert got is None
        elif r < 0.5:
            key = _key(rng.randrange(KEYS))
            got = db.get(key, snapshot)
            assert got == snap_model.get(key)
        elif r < 0.7:
            key = _key(rng.randrange(KEYS))
            got = _window(db.seek(key), k)
            want = [(x, model[x]) for x in ordered if x >= key][: k + 1]
            assert got == want
        elif r < 0.75:
            key = _key(rng.randrange(KEYS))
            got = _window(db.seek(key, snapshot), k)
            want = [(x, snap_model[x]) for x in snap_ordered if x >= key][: k + 1]
            assert got == want
        elif r < 0.95:
            key = _key(rng.randrange(KEYS))
            got = _window(db.seek_reverse(key), k)
            want = [(x, model[x]) for x in reversed(ordered) if x <= key][: k + 1]
            assert got == want
        elif r < 0.975:
            got = list(db.scan())
            assert got == [(x, model[x]) for x in ordered]
        else:
            got = list(db.scan_reverse())
            assert got == [(x, model[x]) for x in reversed(ordered)]
        results.update(repr(got).encode())
        clocks.update(repr(env.clock.now).encode())


def run_config(name: str):
    """Run one configuration; returns (pins, shape checks)."""
    engine, overrides = CONFIGS[name]
    options = tiny_options(engine, **SHAPE, **overrides)
    env = repro.Environment(cache_bytes=1 << 20)
    db = repro.open_store(engine, env.storage, options=options, prefix="db/", seed=3)
    model, snapshot, snap_model = _fill(db, random.Random(17))
    checks = {"files_per_level": db.files_per_level()}
    if engine == "pebblesdb":
        checks["multi_file_guards"] = sum(
            1
            for guarded in db._guarded[1:]
            for guard in guarded.guards()
            if guard.num_files > 1
        )
    results, clocks = hashlib.sha256(), hashlib.sha256()
    _reads(db, env, random.Random(23), READS, model, snapshot, snap_model, results, clocks)
    buf = io.StringIO()
    db.enable_tracing(TraceSink(buf))
    _reads(
        db, env, random.Random(29), TRACED_READS, model, snapshot, snap_model,
        results, clocks,
    )
    db.stats()  # folds the per-level probe tallies into the registry
    probes = tuple(
        (
            db.registry.counter("read.files_probed", level=level).value,
            db.registry.counter("read.bloom_skipped", level=level).value,
        )
        for level in range(options.num_levels)
    )
    trace = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    pins = (results.hexdigest(), clocks.hexdigest(), env.clock.now, probes, trace)
    db.close()
    return pins, checks


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_read_path_is_pinned(name):
    pins, checks = run_config(name)
    assert all(n > 0 for n in checks["files_per_level"]), checks
    if CONFIGS[name][0] == "pebblesdb":
        assert checks["multi_file_guards"] >= 3, checks
    assert pins == PINS[name]


if __name__ == "__main__":  # print the pins table for this tree
    for config in CONFIGS:
        print(f"    {config!r}: {run_config(config)[0]!r},")
