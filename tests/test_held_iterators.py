"""An iterator held open across writes and compactions reads the store
as it was when the iterator was created.

Each case fills a store, opens a forward or reverse iterator, and then
writes enough between ``next()`` calls to flush memtables and run
compactions that rewrite and delete the sstables the iterator is
reading.  The iterator must return exactly the pairs that were visible
when it was created: nothing missing, nothing added, no error from a
file deleted under it.
"""

from __future__ import annotations

import random

import pytest

from tests.conftest import LSM_ENGINES, make_store

FILL = 1000
KEYS = 3000
NEXTS_PER_BURST = 20
BURST = 80


def _key(i: int) -> bytes:
    return b"k%06d" % i


@pytest.mark.parametrize("direction", ["seek", "seek_reverse"])
@pytest.mark.parametrize("engine", LSM_ENGINES)
def test_held_iterator_sees_creation_state(engine, direction, env):
    db = make_store(engine, env)
    rng = random.Random(11)
    model = {}
    for _ in range(FILL):
        key = _key(rng.randrange(KEYS))
        model[key] = b"v%d-" % rng.randrange(1 << 30) + key * 4
        db.put(key, model[key])
    compactions = db.stats().compactions
    if direction == "seek":
        it = db.seek(b"k")
        want = sorted(model.items())
    else:
        it = db.seek_reverse(_key(KEYS))
        want = sorted(model.items(), reverse=True)
    got = []
    with it:
        while it.valid:
            got.append((it.key(), it.value()))
            if len(got) % NEXTS_PER_BURST == 0:
                for _ in range(BURST):
                    key = _key(rng.randrange(KEYS))
                    if rng.random() < 0.2:
                        db.delete(key)
                    else:
                        db.put(key, b"new-" + key * 4)
            it.next()
    assert db.stats().compactions > compactions, "no compaction ran under the iterator"
    assert len(got) == len(want)
    assert got == want
    db.check_invariants()
