"""Byte-identity pins for the compaction paths of both LSM engines.

Every configuration below runs one seeded put/delete/snapshot/seek
workload (with a ``compact_range`` and a ``force_full_compaction`` on
the way) and then ``compact_all()``.  The test pins:

* the sha256 of every storage file (folded into one digest over the
  sorted ``(name, sha256)`` pairs),
* the simulated clock,
* ``stats().compactions``,
* a digest after reopen: the recovered contents plus every storage file
  once recovery has run.

File numbering, MANIFEST bytes, value-log GC and fault retries all feed
the first pin, so a refactor of the compaction machinery that is not
byte-for-byte behaviour preserving fails here.  The pins are data, not
tuning: a deliberate behaviour change recomputes them with
``python tests/test_compaction_identity.py`` and says so.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, Optional, Tuple

import pytest

import repro
from repro.sim.faults import FaultInjector, FaultPlan
from tests.conftest import tiny_options

KiB = 1024
OPS = 2400
KEYS = 600
VLOG = dict(value_separation_bytes=64, vlog_segment_bytes=4 * KiB)
RATE = dict(compaction_rate_bytes_per_sec=2 * 1024 * KiB)
SST_FAULTS = "transient:append:db/*.sst:p=0.02"

#: name -> (engine, option overrides, fault plan)
CONFIGS: Dict[str, Tuple[str, dict, Optional[str]]] = {
    "leveldb": ("leveldb", {}, None),
    "hyperleveldb": ("hyperleveldb", {}, None),
    "rocksdb": ("rocksdb", {}, None),
    "pebblesdb": ("pebblesdb", {}, None),
    "leveldb-vlog": ("leveldb", VLOG, None),
    "hyperleveldb-vlog": ("hyperleveldb", VLOG, None),
    "rocksdb-vlog": ("rocksdb", VLOG, None),
    "pebblesdb-vlog": ("pebblesdb", VLOG, None),
    "pebblesdb-level-scheduler": ("pebblesdb", {"compaction_scheduler": "level"}, None),
    "pebblesdb-rate-limited": ("pebblesdb", RATE, None),
    "hyperleveldb-rate-limited": ("hyperleveldb", RATE, None),
    "pebblesdb-one-sstable-per-guard": ("pebblesdb", {"max_sstables_per_guard": 1}, None),
    "pebblesdb-sst-faults": ("pebblesdb", {}, SST_FAULTS),
    "hyperleveldb-sst-faults": ("hyperleveldb", {}, SST_FAULTS),
}

#: name -> (files digest, sim clock, compactions, reopen digest)
PINS: Dict[str, Tuple[str, float, int, str]] = {
    'leveldb': ('3692477a24055605eb863608aa2e1465dcd24f4b9c784210349dd1323e2a5379', 0.022196977067226342, 41, '1c96afdb8a24db01a97e8ad828dd56e8de3561a6b62fe8e78dc0cdf8c8b806ee'),
    'hyperleveldb': ('a5200e56c296d5ae61784741482def1f6d364e8260fea1829aacdc6fc7c3d03e', 0.021549982579887644, 32, 'b4c60f44745eb92a47649ea9ad46ee0231ed05d2c1193f327a78515cb3b68580'),
    'rocksdb': ('d65486a2fe56719944a26514dc392efde487a93d3365fb36da72815924ba1ca7', 0.02377642900458384, 34, 'cf9256682f1ffc6f88945e8a2f07ec78686f729190f327211156850f2035f594'),
    'pebblesdb': ('f882c4303cbf2a43f34464559974ab63375f3ac114254cd03b544f5dfe40d6ff', 0.05467044957801282, 755, 'f0d7589aed0a5024f205fd44abd4dee20169a74aed039bb9733f3540d4f80a8b'),
    'leveldb-vlog': ('761fa8df3e39fae0de02914b73ee7e6b4ed00e7d62fb63c4577c56449221db07', 0.026078591601731215, 19, '725bc587e9b09ae1fcfb08947e55351fa38f9146afeee3cbb8aaf7b2f45c72af'),
    'hyperleveldb-vlog': ('1122eb93f417a395a589f19a534481e8d0f85505270902bf24354115a6260e59', 0.026097687892997764, 18, '099eb59ed3191790d5c2fd4b3cee06e56100e5c287ccda9c0daba543c6786609'),
    'rocksdb-vlog': ('f5f1f0bc6e2c62d3e136f9199d84b679d18275837d61376bc1cb576373367ad2', 0.028275213016932962, 18, '9742c1d0cc7f178227bfff11a8c66d7bbce4a13d0b84e55b4a6ea7b3744618a3'),
    'pebblesdb-vlog': ('f6ad0fe09bae122d24d30ec9667ed0b11f9c11ac8408db104cb33a92852af496', 0.053203082238773354, 706, 'fe1a4618df0b096163e6efe610392ac8c7bafb5dab8409e1840c7cbb6a72eeb8'),
    'pebblesdb-level-scheduler': ('cb4e2a5f62f9f0d7d2f946d5d3c0adcb8aa469d38ee4bea9fd82da57f7721aa0', 0.05485135020735315, 755, 'b2028a0747cd085dfb2afb19c9a942c96f5e293572436c1814b1060b24ee0cea'),
    'pebblesdb-rate-limited': ('eb5be0bda91939427e6f0f51fa83fb60e039758732f7da2b370105f2074dd27f', 0.742962388657803, 734, '042b454e6f786038ba425f180533463ebca4406a04dc21f2ad67e4b6b682d341'),
    'hyperleveldb-rate-limited': ('417359a6054822d108eb07752474593712c7a813179e273dde7c5ef4717e79a0', 0.4352572786727885, 26, 'ca7ee30bbea95e6403079083f52aac9d23af10fb5f3634b4e7ed2408b949e562'),
    'pebblesdb-one-sstable-per-guard': ('0664688b2eea65b31fd3accc087b91d0fa4329ae3edc2415a0efc77430ab0ea5', 0.05222047775506201, 734, '8947580a58a52eccffdb12e3d05552cf1ae6a78b366d2a3ae34f75e1f1d5b8fa'),
    'pebblesdb-sst-faults': ('72213235222ba610b5925d8bc1b0ebd18ec8a0203c49fc35de784dad65b40694', 0.08786973082801047, 755, 'b681c4379fdfa1884e14778b5487fa3960bef29baeea040de79e4ef38330a30a'),
    'hyperleveldb-sst-faults': ('979e44e52a1789b7c78e835ab1c81666f1642e6f350fd11e4d46ac80075e0daa', 0.023525982579887642, 32, '9bef3ff887d9703da699dc70a27a5c0c114c823489c97198da886cba94ca5357'),
}


def _files_digest(storage) -> str:
    h = hashlib.sha256()
    for name in sorted(storage.list_files()):
        data = bytes(storage._files[name].data)  # test support: raw view
        h.update(name.encode() + b"\0" + hashlib.sha256(data).digest())
    return h.hexdigest()


def _workload(db, rng: random.Random, model: Dict[bytes, bytes]) -> None:
    snapshots = []
    for i in range(OPS):
        key = b"k%06d" % rng.randrange(KEYS)
        r = rng.random()
        if r < 0.78:
            value = bytes([rng.randrange(97, 123)]) * rng.choice((16, 48, 96, 200))
            db.put(key, value)
            model[key] = value
        elif r < 0.93:
            db.delete(key)
            model.pop(key, None)
        elif r < 0.98:
            with db.seek(key) as it:
                for _ in range(5):
                    if not it.valid:
                        break
                    it.next()
        elif snapshots and rng.random() < 0.5:
            db.release_snapshot(snapshots.pop(0))
        else:
            snapshots.append(db.get_snapshot())
        if i == OPS // 2:
            db.compact_range(b"k%06d" % (KEYS // 4), b"k%06d" % (KEYS // 2))
        if i == 3 * OPS // 4:
            db.force_full_compaction()
    # One snapshot stays held through compact_all(), so the final passes
    # must keep the versions it pins.
    for snapshot in snapshots[1:]:
        db.release_snapshot(snapshot)


def run_config(name: str):
    """Run one configuration; returns (pins, checks)."""
    engine, overrides, faults = CONFIGS[name]
    options = tiny_options(engine, **overrides)
    injector = FaultInjector(FaultPlan.from_string(faults, seed=7)) if faults else None
    env = repro.Environment(cache_bytes=1 << 20, faults=injector)
    db = repro.open_store(engine, env.storage, options=options, prefix="db/", seed=3)
    model: Dict[bytes, bytes] = {}
    _workload(db, random.Random(17), model)
    db.compact_all()
    stats = db.stats()
    checks = {
        "degraded": stats.degraded,
        "retries": stats.transient_fault_retries,
        "relocated": stats.extra.get("vlog_gc_relocated", 0),
        "rate_limited": db.registry.counter("compaction.rate_limited_jobs").value,
    }
    files = _files_digest(env.storage)
    clock = env.clock.now
    db.close()
    env.storage.set_fault_injector(None)
    reopened = repro.open_store(engine, env.storage, options=options, prefix="db/", seed=3)
    contents = list(reopened.scan())
    checks["contents_match"] = dict(contents) == model
    h = hashlib.sha256()
    for key, value in contents:
        h.update(key + b"\0" + value + b"\1")
    h.update(_files_digest(env.storage).encode())
    reopened.close()
    return (files, clock, stats.compactions, h.hexdigest()), checks


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_compaction_output_is_pinned(name):
    pins, checks = run_config(name)
    assert checks["contents_match"], "reopened contents differ from the model"
    assert not checks["degraded"]
    _, overrides, faults = CONFIGS[name]
    if "value_separation_bytes" in overrides:
        assert checks["relocated"] > 0, "workload never relocated a value"
    if faults is not None:
        assert checks["retries"] > 0, "workload never retried a fault"
    if "compaction_rate_bytes_per_sec" in overrides:
        assert checks["rate_limited"] > 0, "limiter never delayed a job"
    assert pins == PINS[name]


if __name__ == "__main__":  # print the pins table for this tree
    for config in CONFIGS:
        print(f"    {config!r}: {run_config(config)[0]!r},")
