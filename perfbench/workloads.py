"""The benchmark's workloads, each checked against a reference model.

A workload runs as *repetitions*: set up a fresh store (or server), run
the measured phase, verify, close and reopen.  A repetition is a pure
function of (seed, repetition index) on the simulated clock, so its
simulated metrics are exact: the same in every run with that seed, and
the same traced or untraced.

Only the inputs come from the seed.  The program sees nothing but the
generated keys, values and operations, through the public API:
``repro.open_store`` / ``KeyValueStore`` for the direct workloads and
``KVServer`` + ``ClusterClient.open_loopback`` for the served one.

Keys are 16 bytes (``user`` + 12 digits) and values 256 bytes.  Present
keys have even indices and absent keys odd ones, so a lookup of an
absent key lands inside the key range and the bloom filters have real
negatives to find.
"""

from __future__ import annotations

import asyncio
import bisect
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import repro
from repro.errors import ReproError
from repro.net.client import ClusterClient
from repro.net.errors import NetError
from repro.net.server import KVServer, ServerConfig
from repro.util.keys import KIND_PUT

KEY_BYTES = 16
VALUE_BYTES = 256
#: ``seek`` means ``seek()`` plus this many ``next()`` calls.
SEEK_NEXTS = 10
#: Sim-time percentile reported as ``sim_lat_p99_us``.
SIM_TAIL = 0.99
#: Timed samples per repetition of the phases that take milliseconds
#: (store open on an empty device, reopen).
SHORT_PHASE_SAMPLES = 5

clock = time.perf_counter


def key_of(index: int) -> bytes:
    return b"user%012d" % index


def present_key(i: int) -> bytes:
    return key_of(2 * i)


def absent_key(i: int) -> bytes:
    return key_of(2 * i + 1)


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, -(-int(q * 1_000_000) * len(ordered) // 1_000_000))
    return ordered[min(rank, len(ordered)) - 1]


# ----------------------------------------------------------------------
# Reference model
# ----------------------------------------------------------------------
class Checker:
    """Counts attempted and failed operations against a reference dict.

    A failure is an operation that raised, was refused, or returned
    something other than what the reference model holds: a wrong value,
    a missing key, a phantom key, or a seek window with the wrong keys,
    values, order or length.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def fail(self, what: str, count: int = 1) -> None:
        self.failed += count
        if len(self.problems) < 5:
            self.problems.append(what)

    def get(self, key: bytes, got: Optional[bytes], ref: Dict[bytes, bytes]) -> None:
        want = ref.get(key)
        if got != want:
            self.fail(
                f"get {key!r}: got {_short(got)}, want {_short(want)}"
            )

    def window(
        self,
        lo: bytes,
        got: List[Tuple[bytes, bytes]],
        ref: Dict[bytes, bytes],
        ordered: List[bytes],
    ) -> None:
        at = bisect.bisect_left(ordered, lo)
        want = [(k, ref[k]) for k in ordered[at : at + SEEK_NEXTS + 1]]
        if got != want:
            self.fail(
                f"seek {lo!r}: got keys {[k for k, _ in got][:3]}..., "
                f"want {[k for k, _ in want][:3]}... "
                f"({len(got)} vs {len(want)} entries)"
            )

    def contents(self, got: List[Tuple[bytes, bytes]], ref: Dict[bytes, bytes]) -> None:
        self.attempted += 1
        if got != sorted(ref.items()):
            self.fail(f"full scan after reopen: {len(got)} entries, want {len(ref)}")


def _short(value: Optional[bytes]) -> str:
    return "absent" if value is None else f"{len(value)}B {value[:6].hex()}"


def logical_bytes(ref: Dict[bytes, bytes]) -> int:
    return sum(len(k) + len(v) for k, v in ref.items())


# ----------------------------------------------------------------------
# One repetition's result
# ----------------------------------------------------------------------
@dataclass
class Rep:
    #: Wall seconds of each timed set-up / reopen of this repetition.
    setup_s: List[float] = field(default_factory=list)
    reopen_s: List[float] = field(default_factory=list)
    measured_s: float = 0.0
    wall_s: float = 0.0
    ops: int = 0
    #: Wall latency samples in microseconds per op type (put/get/seek),
    #: from every phase of the repetition that issues that op type.
    wall_us: Dict[str, List[float]] = field(
        default_factory=lambda: {"put": [], "get": [], "seek": []}
    )
    #: Simulated metrics; exact for a given seed.  ``reopen_sim_ms``
    #: (the first reopen's simulated time) is reported per layer only:
    #: it varies too much between input variants to gate.
    sim: Dict[str, float] = field(default_factory=dict)
    #: Per-layer counters read from public stats at the end.
    counters: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class Workload:
    """Base: sizes from ``scale``, inputs from ``(seed, repetition)``.

    Repetition ``r`` of seed ``s`` draws its inputs from its own random
    stream, so a run averages over several input variants while staying
    a pure function of the seed.  Inputs are generated before any timer
    starts.
    """

    name = ""
    why = ""

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        self.seed = seed
        self.scale = scale

    def scaled(self, n: int) -> int:
        return max(10, int(n * self.scale))

    def rng(self, rep: int) -> random.Random:
        return random.Random(f"{self.name}/{self.seed}/{rep}")

    def params(self) -> Dict[str, object]:
        raise NotImplementedError

    def run(self, rep: int = 0) -> Rep:
        raise NotImplementedError


def _page_cache_bytes(keys: int) -> int:
    """The harness convention: simulated page cache = dataset / 3."""
    return keys * (KEY_BYTES + VALUE_BYTES) // 3


class DirectMixed(Workload):
    """A store opened directly: fillrandom, then a mixed phase.

    The measured phase is a fillrandom of ``keys`` keys followed by
    ``mixed_ops`` uniform operations: 50% overwrites, 40% gets (1 in 10
    on an absent key) and 10% seeks (``seek()`` + 10 ``next()``).  Every
    op type is spread over the measured phase, so each latency median
    averages over the whole run rather than one short phase.  The block
    cache is smaller than the tables, so gets and seeks reach the
    sstable reader, the bloom filters and the simulated device.
    """

    engine = "pebblesdb"

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        super().__init__(seed, scale)
        self.keys = self.scaled(10_000)
        self.mixed_ops = self.scaled(10_000)
        self.block_cache_bytes = max(64 * 1024, int(1024 * 1024 * scale))

    def params(self) -> Dict[str, object]:
        return {
            "engine": self.engine,
            "fill_keys": self.keys,
            "mixed_ops": self.mixed_ops,
            "mix": "50% overwrite, 40% get (1 in 10 absent), 10% seek; uniform",
            "block_cache_bytes": self.block_cache_bytes,
            "page_cache_bytes": _page_cache_bytes(self.keys),
            "key_bytes": KEY_BYTES,
            "value_bytes": VALUE_BYTES,
        }

    def inputs(self, rep: int) -> List[Tuple[str, bytes, Optional[bytes]]]:
        """The measured ops of repetition ``rep``: fill, then the mix."""
        rng = self.rng(rep)
        order = list(range(self.keys))
        rng.shuffle(order)
        ops = [("put", present_key(i), rng.randbytes(VALUE_BYTES)) for i in order]
        for n in range(self.mixed_ops):
            roll = rng.random()
            i = rng.randrange(self.keys)
            if roll < 0.5:
                ops.append(("put", present_key(i), rng.randbytes(VALUE_BYTES)))
            elif roll < 0.9:
                ops.append(("get", absent_key(i) if n % 10 == 9 else present_key(i), None))
            else:
                ops.append(("seek", key_of(rng.randrange(2 * self.keys)), None))
        return ops

    def _open(self, env):
        options = repro.StoreOptions.for_preset(self.engine)
        options.block_cache_bytes = self.block_cache_bytes
        return repro.open_store(self.engine, env.storage, options=options, seed=self.seed)

    def run(self, rep_index: int = 0) -> Rep:
        ops = self.inputs(rep_index)
        rep, ck = Rep(), Checker()
        begin = clock()
        for _ in range(SHORT_PHASE_SAMPLES):
            t0 = clock()
            env = repro.Environment(cache_bytes=_page_cache_bytes(self.keys))
            db = self._open(env)
            rep.setup_s.append(clock() - t0)

        ref: Dict[bytes, bytes] = {}
        ordered: List[bytes] = []
        sim_lat: List[float] = []
        sim_clock = env.clock
        sim0 = sim_clock.now
        read0 = db.stats().device_bytes_read
        t_measure = clock()
        for at, (kind, key, value) in enumerate(ops):
            if at == self.keys:
                # The mix only overwrites, so the key set is now fixed.
                ordered = sorted(ref)
            ck.attempted += 1
            s0 = sim_clock.now
            t0 = clock()
            try:
                if kind == "put":
                    db.put(key, value)
                elif kind == "get":
                    got = db.get(key)
                else:
                    got = []
                    it = db.seek(key)
                    while it.valid and len(got) <= SEEK_NEXTS:
                        got.append((it.key(), it.value()))
                        if len(got) <= SEEK_NEXTS:
                            it.next()
                    it.close()
            except ReproError as exc:
                ck.fail(f"{kind} {key!r} raised {exc!r}")
                continue
            us = (clock() - t0) * 1e6
            rep.wall_us[kind].append(us)
            sim_lat.append(sim_clock.now - s0)
            if kind == "put":
                ref[key] = value
            elif kind == "get":
                ck.get(key, got, ref)
            else:
                ck.window(key, got, ref, ordered)
        db.wait_idle()
        rep.measured_s = clock() - t_measure
        rep.ops = len(ops)
        stats = db.stats()
        rep.sim = {
            "sim_kops": rep.ops / (sim_clock.now - sim0) / 1000.0,
            "sim_lat_p99_us": percentile(sim_lat, SIM_TAIL) * 1e6,
            "write_amp": stats.write_amplification,
            "space_amp": env.storage.total_live_bytes(db.prefix) / logical_bytes(ref),
            "read_bytes_per_op": (stats.device_bytes_read - read0) / rep.ops,
        }

        rep.counters = store_counters([db])
        for sample in range(SHORT_PHASE_SAMPLES):
            db.close()
            s0 = sim_clock.now
            t0 = clock()
            db = self._open(env)
            rep.reopen_s.append(clock() - t0)
            if sample == 0:
                rep.sim["reopen_sim_ms"] = (sim_clock.now - s0) * 1e3
        ck.contents(list(db.scan()), ref)
        db.close()
        rep.wall_s = clock() - begin
        rep.attempted, rep.failed, rep.problems = ck.attempted, ck.failed, ck.problems
        return rep


class PebblesMixed(DirectMixed):
    name = "pebbles_mixed"
    why = (
        "pebblesdb direct: fillrandom then overwrite/get/seek mix over a "
        "working set larger than the block cache; write path, read path, "
        "FLSM guards, reopen"
    )
    engine = "pebblesdb"


class LeveledMixed(DirectMixed):
    name = "leveled_mixed"
    why = (
        "pebbles_mixed on the hyperleveldb preset: measures engines.lsm and "
        "gives the paper's FLSM-vs-leveled ratio in one run set"
    )
    engine = "hyperleveldb"


class ServedYcsbA(Workload):
    name = "served_ycsb_a"
    why = (
        "2-shard loopback KVServer, closed-loop YCSB-A (50/50 get/update, "
        "scrambled zipfian), 8 outstanding: net.*, group commit, mixed I/O"
    )
    engine = "pebblesdb"
    shards = 2
    outstanding = 8
    pool_size = 2
    preload_batch = 100

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        super().__init__(seed, scale)
        self.keys = self.scaled(10_000)
        self.ops = self.scaled(10_000)
        self.verify_seeks = self.scaled(400)

    def inputs(self, rep: int):
        """(preload, YCSB-A ops, verify scan windows) of repetition ``rep``."""
        from repro.workloads.distributions import ScrambledZipfianGenerator

        rng = self.rng(rep)
        order = list(range(self.keys))
        rng.shuffle(order)
        preload = [(present_key(i), rng.randbytes(VALUE_BYTES)) for i in order]
        zipf = ScrambledZipfianGenerator(self.keys, seed=rng.randrange(1 << 30))
        ycsb: List[Tuple[str, bytes, Optional[bytes]]] = []
        for _ in range(self.ops):
            key = present_key(zipf.next())
            if rng.random() < 0.5:
                ycsb.append(("get", key, None))
            else:
                ycsb.append(("put", key, rng.randbytes(VALUE_BYTES)))
        # [lo, hi) holds exactly SEEK_NEXTS + 1 present (even) keys.
        span = 2 * SEEK_NEXTS + 2
        windows = []
        for _ in range(self.verify_seeks):
            start = rng.randrange(2 * self.keys - span)
            windows.append((key_of(start), key_of(start + span)))
        return preload, ycsb, windows

    def params(self) -> Dict[str, object]:
        return {
            "engine": self.engine,
            "shards": self.shards,
            "keys": self.keys,
            "ops": self.ops,
            "read_share": 0.5,
            "distribution": "scrambled_zipfian",
            "outstanding": self.outstanding,
            "pool_size": self.pool_size,
            "verify_seeks": self.verify_seeks,
            "page_cache_bytes_per_shard": _page_cache_bytes(self.keys) // self.shards,
            "key_bytes": KEY_BYTES,
            "value_bytes": VALUE_BYTES,
        }

    def run(self, rep_index: int = 0) -> Rep:
        return asyncio.run(self._run(*self.inputs(rep_index)))

    async def _run(self, preload, ycsb, windows) -> Rep:
        rep, ck = Rep(), Checker()
        begin = clock()
        config = ServerConfig(
            engine=self.engine,
            shards=self.shards,
            uniform_keys=2 * self.keys,
            seed=self.seed,
            cache_bytes=_page_cache_bytes(self.keys) // self.shards,
        )
        server = KVServer(config)
        client = await ClusterClient.open_loopback(server, pool_size=self.pool_size)
        ref: Dict[bytes, bytes] = {}
        for at in range(0, len(preload), self.preload_batch):
            chunk = preload[at : at + self.preload_batch]
            ck.attempted += len(chunk)
            try:
                await client.write_batch([(KIND_PUT, k, v) for k, v in chunk])
            except NetError as exc:
                ck.fail(f"preload batch at {at} raised {exc!r}")
                continue
            ref.update(chunk)
        await server.wait_idle()
        rep.setup_s.append(clock() - begin)

        dbs = [shard.db for shard in server.shards]
        clocks = [shard.env.clock for shard in server.shards]
        router = client.router
        sim0 = server.sim_now()
        read0 = sum(db.stats().device_bytes_read for db in dbs)
        sim_lat: List[float] = []
        locks: Dict[bytes, asyncio.Lock] = {}
        next_op = iter(ycsb)

        async def worker() -> None:
            for kind, key, value in next_op:
                # Ops on one key are serialized in issue order, so the
                # reference model is exact under 8 outstanding requests.
                lock = locks.setdefault(key, asyncio.Lock())
                async with lock:
                    shard_clock = clocks[router.shard_for(key)]
                    ck.attempted += 1
                    s0 = shard_clock.now
                    t0 = clock()
                    try:
                        if kind == "get":
                            got = await client.get(key)
                        else:
                            await client.put(key, value)
                    except NetError as exc:
                        ck.fail(f"{kind} {key!r} raised {exc!r}")
                        continue
                    us = (clock() - t0) * 1e6
                    rep.wall_us[kind].append(us)
                    sim_lat.append(shard_clock.now - s0)
                    if kind == "get":
                        ck.get(key, got, ref)
                    else:
                        ref[key] = value

        t_measure = clock()
        await asyncio.gather(*(worker() for _ in range(self.outstanding)))
        await server.wait_idle()
        rep.measured_s = clock() - t_measure
        rep.ops = len(ycsb)
        stats = [db.stats() for db in dbs]
        user = sum(s.user_bytes_written for s in stats)
        rep.sim = {
            "sim_kops": rep.ops / (server.sim_now() - sim0) / 1000.0,
            "sim_lat_p99_us": percentile(sim_lat, SIM_TAIL) * 1e6,
            "write_amp": sum(s.device_bytes_written for s in stats) / user,
            "space_amp": sum(
                shard.env.storage.total_live_bytes(shard.db.prefix)
                for shard in server.shards
            )
            / logical_bytes(ref),
            "read_bytes_per_op": (sum(s.device_bytes_read for s in stats) - read0)
            / rep.ops,
        }

        # Verify: seek windows through the wire.  A SCAN bounded to the
        # window's key range asks only the shard(s) holding it, as a
        # seek + 10 next() does on a direct store.
        ordered = sorted(ref)
        for lo, hi in windows:
            ck.attempted += 1
            t0 = clock()
            try:
                got = await client.scan(lo, hi, limit=SEEK_NEXTS + 1)
            except NetError as exc:
                ck.fail(f"scan {lo!r} raised {exc!r}")
                continue
            rep.wall_us["seek"].append((clock() - t0) * 1e6)
            ck.window(lo, [(bytes(k), bytes(v)) for k, v in got], ref, ordered)

        rep.counters = store_counters(dbs)
        totals = server.total_ops()
        rep.counters["net.server.writes_per_group_commit"] = (
            totals["coalesced_writes"] / totals["group_commits"]
            if totals["group_commits"]
            else 0.0
        )
        rep.counters["net.client.retries"] = client.stats.retries
        # Refused attempts (OVERLOADED, UNAVAILABLE, dropped connections)
        # count as failures even when a retry then succeeded.
        refused = client.stats.transient_errors
        if refused:
            ck.fail(f"{refused} request attempts refused and retried", refused)
        await client.aclose()
        await server.aclose()

        # Reopen every shard's store from its storage (recovery time).
        reopened: list = []
        for sample in range(SHORT_PHASE_SAMPLES):
            for db in reopened:
                db.close()
            s0 = [c.now for c in clocks]
            t0 = clock()
            reopened = [
                repro.open_store(
                    self.engine,
                    shard.env.storage,
                    prefix=shard.db.prefix,
                    seed=self.seed + shard.index,
                )
                for shard in server.shards
            ]
            rep.reopen_s.append(clock() - t0)
            if sample == 0:
                rep.sim["reopen_sim_ms"] = sum(
                    (c.now - before) * 1e3 for c, before in zip(clocks, s0)
                )
        pairs: List[Tuple[bytes, bytes]] = []
        for db in reopened:
            pairs.extend(db.scan())
            db.close()
        ck.contents(pairs, ref)
        rep.wall_s = clock() - begin
        rep.attempted, rep.failed, rep.problems = ck.attempted, ck.failed, ck.problems
        return rep


WORKLOADS = {w.name: w for w in (PebblesMixed, LeveledMixed, ServedYcsbA)}


# ----------------------------------------------------------------------
# Per-layer counters from public stats
# ----------------------------------------------------------------------
#: Stall causes the engines attribute (``stall.cause_seconds``).
STALL_CAUSES = ("imm_backpressure", "l0_stop", "l0_stop_conflict", "l0_slowdown")


def store_counters(dbs) -> Dict[str, float]:
    """Counters summed over ``dbs`` from ``stats()``, the I/O ledger,
    the metrics registry and ``get_property``."""
    out: Dict[str, float] = {}

    def add(name: str, value: float) -> None:
        out[name] = out.get(name, 0) + value

    hits = misses = probed = skipped = 0
    for db in dbs:
        stats = db.stats()
        flsm = stats.preset == "pebblesdb"
        add("core.pebbles.compactions", stats.compactions if flsm else 0)
        add("engines.lsm.compactions", 0 if flsm else stats.compactions)
        hits += stats.block_cache_hits
        misses += stats.block_cache_misses
        guards = db.get_property("repro.guards")
        add("core.guards.guards", sum(int(g) for g in guards.split()) if guards else 0)
        ledger = db.io_ledger()
        written = ledger.write_bytes
        add("wal.bytes", written.get("wal", 0))
        add("version.manifest_bytes", written.get("manifest", 0))
        for account in ("wal", "flush", "manifest"):
            add(f"sim.ledger.{account}_bytes", written.get(account, 0))
        add(
            "sim.ledger.compaction_bytes",
            sum(v for k, v in written.items() if k.startswith("compaction")),
        )
        add("sim.executor.jobs", db.executor.jobs_run)
        add("sim.executor.stall_sim_s", stats.stall_seconds)
        for cause in STALL_CAUSES:
            add(
                f"sim.executor.stall_sim_s.{cause}",
                db.registry.value("stall.cause_seconds", cause=cause),
            )
        for metric in db.registry:
            if metric.name == "read.files_probed":
                probed += metric.value
            elif metric.name == "read.bloom_skipped":
                skipped += metric.value
    out["sstable.block_cache.hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
    out["bloom.probes"] = probed + skipped
    out["bloom.negative_rate"] = skipped / (probed + skipped) if probed + skipped else 0.0
    return out
