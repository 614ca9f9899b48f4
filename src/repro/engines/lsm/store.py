"""Classic leveled LSM store (LevelDB-family baseline).

Invariant (paper section 2.2): every level except Level 0 holds sstables
with pairwise-disjoint key ranges, so a lookup reads at most one file per
level.  The price is the write amplification the paper attacks: compacting
a file into level *i+1* rewrites every overlapping file there.

Presets (see :mod:`repro.engines.options`) differentiate LevelDB,
HyperLevelDB, and RocksDB by memtable size, Level-0 limits, worker count,
and how many files one compaction pass takes.  LevelDB's trivial-move
optimization is implemented: a file that overlaps nothing in the next
level moves by metadata edit alone, which is why sequential insertion is
nearly free for LSM but not for FLSM (paper section 4.5).
"""

from __future__ import annotations

from bisect import insort
from typing import Callable, Dict, List, Optional, Tuple

from repro.engines.base import CompactionJob, LSMStoreBase
from repro.version import VersionEdit
from repro.version.files import FileMetadata
from repro.version.manifest import GUARD_NONE


def _first_reaching(files: List[FileMetadata], key: bytes) -> int:
    """Index of the first file of a disjoint level whose range reaches
    ``key`` (``len(files)`` when every file lies below it)."""
    lo, hi = 0, len(files)
    while lo < hi:
        mid = (lo + hi) // 2
        if files[mid].largest.user_key < key:
            lo = mid + 1
        else:
            hi = mid
    return lo


class LeveledLSMStore(LSMStoreBase):
    """Leveled-compaction LSM engine."""

    def __init__(self, *args, **kwargs) -> None:
        self._levels: List[List[FileMetadata]] = []
        self._compact_pointer: Dict[int, bytes] = {}
        self._seek_overflow: List[Tuple[int, FileMetadata]] = []
        #: Optional compaction trace for the Figure 2.1 illustration:
        #: (from_level, input_numbers, output_numbers, bytes_written).
        self.compaction_trace: Optional[List[Tuple[int, List[int], List[int], int]]] = None
        super().__init__(*args, **kwargs)
        while len(self._levels) < self.options.num_levels:
            self._levels.append([])

    # ==================================================================
    # State installation
    # ==================================================================
    def _install_flush(self, metas: List[FileMetadata], edit: VersionEdit) -> None:
        while not self._levels:  # recovery may flush before levels exist
            self._levels.append([])
        for meta in metas:
            self._levels[0].insert(0, meta)
            edit.add_file(0, meta, GUARD_NONE)

    def _level0_file_count(self) -> int:
        return len(self._levels[0]) if self._levels else 0

    def level_sizes(self) -> List[int]:
        return [sum(f.file_size for f in level) for level in self._levels]

    def files_per_level(self) -> List[int]:
        return [len(level) for level in self._levels]

    def live_files(self) -> List[FileMetadata]:
        return [f for level in self._levels for f in level]

    def compact_range(self, lo: bytes, hi: bytes) -> None:
        """Compact all data overlapping ``[lo, hi]`` to the deepest level
        holding it (LevelDB's CompactRange restricted to a key range)."""
        self._compact_down(lambda f: f.overlaps(lo, hi))

    def _compact_down(self, selected: Callable[[FileMetadata], bool]) -> None:
        """Merge each level's ``selected`` files (with their overlap) into
        the next level, from Level 0 down to the deepest level."""
        self.flush_memtable()
        self.executor.wait_all()
        for level in range(0, len(self._levels) - 1):
            while True:
                inputs = [
                    f
                    for f in self._levels[level]
                    if selected(f) and f.number not in self._busy
                ]
                if not inputs:
                    break
                next_inputs = self._overlapping(level + 1, inputs)
                if any(f.number in self._busy for f in next_inputs):
                    break
                if not self._submit_compaction(level, inputs, next_inputs):
                    return
                self.executor.wait_all()

    # ==================================================================
    # Read-path hooks: below Level 0 each file is a run of its own
    # ==================================================================
    def _level0_files(self) -> List[FileMetadata]:
        return self._levels[0]

    def _level_count(self) -> int:
        return len(self._levels)

    def _run_covering(self, level: int, key: bytes) -> Optional[List[FileMetadata]]:
        files = self._levels[level]
        if not files:
            return None
        idx = _first_reaching(files, key)
        return files[idx : idx + 1]

    def _runs_from(self, level: int, start: bytes) -> List[List[FileMetadata]]:
        files = self._levels[level]
        return [[f] for f in files[_first_reaching(files, start) :]]

    def _runs_down_to(
        self, level: int, bound: Optional[bytes]
    ) -> List[List[FileMetadata]]:
        return [
            [f]
            for f in reversed(self._levels[level])
            if bound is None or f.smallest.user_key <= bound
        ]

    def _note_positioned_run(
        self, level: int, start: bytes, files: List[FileMetadata]
    ) -> None:
        # LevelDB's seek-triggered compaction: a file positioned by enough
        # seeks becomes a compaction candidate.
        for meta in files:
            meta.allowed_seeks -= 1
            if meta.allowed_seeks == 0:
                self._seek_overflow.append((level, meta))

    # ==================================================================
    # Compaction
    # ==================================================================
    def _schedule_compactions(self) -> None:
        if self._background_error is not None:
            return
        for _ in range(len(self._levels) * 2):
            if not self._pick_and_submit():
                break

    def _pick_and_submit(self) -> bool:
        self._l0_conflict_blocked = False
        spec = self._pick_compaction()
        if spec is None:
            return False
        level, inputs, next_inputs = spec
        return self._submit_compaction(level, inputs, next_inputs)

    def _scheduler_mode(self) -> str:
        # Leveled compaction already serializes at file granularity: jobs
        # conflict only when their input/output file sets intersect.
        return "file"

    # --- fault-rollback hooks (see LSMStoreBase._run_protected) ---------
    def _capture_background_state(self):
        return (dict(self._compact_pointer), list(self._seek_overflow))

    def _restore_background_state(self, snapshot) -> None:
        self._compact_pointer, self._seek_overflow = snapshot

    def _pick_compaction(
        self,
    ) -> Optional[Tuple[int, List[FileMetadata], List[FileMetadata]]]:
        opts = self.options
        # Priority 1: Level 0 file count.
        l0 = [f for f in self._levels[0] if f.number not in self._busy]
        if len(self._levels[0]) >= opts.level0_compaction_trigger:
            if len(l0) == len(self._levels[0]):  # nothing already being compacted
                next_inputs = self._overlapping(1, l0)
                if all(f.number not in self._busy for f in next_inputs):
                    return (0, l0, next_inputs)
            self._l0_conflict_blocked = True
            self._stats.compaction_conflicts += 1
        # Priority 2: level size vs target.
        best_level, best_score = -1, opts.compaction_eagerness
        sizes = self.level_sizes()
        for level in range(1, len(self._levels) - 1):
            if not self._levels[level]:
                continue
            score = sizes[level] / opts.level_target_bytes(level)
            if score >= best_score:
                best_level, best_score = level, score
        if best_level > 0:
            picked = self._pick_level_inputs(best_level)
            if picked is not None:
                return picked
        # Priority 3: seek-triggered compaction.
        while self._seek_overflow:
            level, meta = self._seek_overflow.pop(0)
            if meta.number in self._busy or meta not in self._levels[level]:
                continue
            if level >= len(self._levels) - 1:
                continue
            next_inputs = self._overlapping(level + 1, [meta])
            if all(f.number not in self._busy for f in next_inputs):
                return (level, [meta], next_inputs)
        return None

    def _pick_level_inputs(
        self, level: int
    ) -> Optional[Tuple[int, List[FileMetadata], List[FileMetadata]]]:
        opts = self.options
        files = [f for f in self._levels[level] if f.number not in self._busy]
        if not files:
            return None
        count = opts.compaction_max_input_files
        if opts.compaction_policy == "min_overlap":
            inputs = self._min_overlap_window(level, files, count)
        else:
            pointer = self._compact_pointer.get(level, b"")
            start = 0
            for i, meta in enumerate(files):
                if meta.largest.user_key > pointer:
                    start = i
                    break
            inputs = files[start : start + count]
            if not inputs:
                inputs = files[:count]
        next_inputs = self._overlapping(level + 1, inputs)
        if any(f.number in self._busy for f in next_inputs):
            return None
        return (level, inputs, next_inputs)

    def _min_overlap_window(
        self, level: int, files: List[FileMetadata], count: int
    ) -> List[FileMetadata]:
        """HyperLevelDB's compaction choice: the contiguous window of
        files whose next-level overlap is smallest relative to its size,
        minimizing the rewrite IO of the pass."""
        best: List[FileMetadata] = files[:count]
        best_score = float("inf")
        for start in range(len(files)):
            window = files[start : start + count]
            input_bytes = sum(f.file_size for f in window)
            if input_bytes == 0:
                continue
            overlap = sum(
                f.file_size for f in self._overlapping(level + 1, window)
            )
            score = overlap / input_bytes
            if score < best_score:
                best_score = score
                best = window
        return best

    def _overlapping(self, level: int, inputs: List[FileMetadata]) -> List[FileMetadata]:
        if level >= len(self._levels):
            return []
        lo = min(f.smallest.user_key for f in inputs)
        hi = max(f.largest.user_key for f in inputs)
        return [f for f in self._levels[level] if f.overlaps(lo, hi)]

    def _submit_compaction(
        self,
        level: int,
        inputs: List[FileMetadata],
        next_inputs: List[FileMetadata],
    ) -> bool:
        """Merge ``inputs`` (at ``level``) with their overlap in the next
        level, with fault retries; False once the store is degraded."""
        target = level + 1
        # Trivial move: nothing to merge with and inputs mutually disjoint —
        # a metadata-only edit, no IO.  This is LevelDB's fast path that
        # makes sequential insertion so cheap (paper section 4.5).
        move = (
            self.options.allow_trivial_move
            and not next_inputs
            and self._mutually_disjoint(inputs)
        )

        def shape(job: CompactionJob) -> None:
            for meta in inputs + next_inputs:
                self._busy.add(meta.number)
            self._note_compaction_inflight(1)
            job.consume(level, inputs)
            job.consume(target, next_inputs)
            if move:
                for meta in inputs:
                    job.output(target, meta)
                return
            merged = job.merge(inputs + next_inputs, self._is_bottom(target))
            metas = self._write_sstables(
                merged, job.acct, split_bytes=self.options.target_file_bytes
            )
            for meta in metas:
                job.output(target, meta)
            if inputs:
                self._compact_pointer[level] = max(f.largest.user_key for f in inputs)
            if self.compaction_trace is not None:
                self.compaction_trace.append(
                    (
                        level,
                        [f.number for f in inputs + next_inputs],
                        [m.number for m in metas],
                        sum(m.file_size for m in metas),
                    )
                )

        if move:
            return self._run_compaction(level, None, "compaction.move", shape)
        return self._run_compaction(
            level, f"compaction.level.L{level}", "compaction", shape
        )

    @staticmethod
    def _mutually_disjoint(metas: List[FileMetadata]) -> bool:
        ordered = sorted(metas, key=lambda f: f.smallest)
        return all(
            a.largest.user_key < b.smallest.user_key
            for a, b in zip(ordered, ordered[1:])
        )

    def _detach_file(self, level: int, meta: FileMetadata) -> None:
        self._remove_from_level(level, meta.number)

    def _install_file(self, level: int, meta: FileMetadata) -> None:
        insort(self._levels[level], meta, key=lambda f: f.smallest)

    def _remove_from_level(self, level: int, number: int) -> None:
        self._levels[level] = [f for f in self._levels[level] if f.number != number]

    def _is_bottom(self, level: int) -> bool:
        """True when no live data exists below ``level``."""
        return all(not self._levels[l] for l in range(level + 1, len(self._levels)))

    def force_full_compaction(self) -> None:
        """LevelDB's ``CompactRange``: merge every level into the next
        until all data sits at the deepest populated level and tombstones
        are garbage collected."""
        self._compact_down(lambda f: True)

    # ==================================================================
    # Recovery plumbing
    # ==================================================================
    def _recover_file(
        self, level: int, meta: FileMetadata, marker: int, guard_key: bytes
    ) -> None:
        while len(self._levels) <= level:
            self._levels.append([])
        if level == 0:
            self._levels[0].insert(0, meta)
        else:
            insort(self._levels[level], meta, key=lambda f: f.smallest)

    def _recover_drop_file(self, level: int, number: int) -> None:
        if level < len(self._levels):
            self._remove_from_level(level, number)

    # ==================================================================
    # Diagnostics
    # ==================================================================
    def layout(self) -> str:
        """Human-readable level map (the Figure 2.1 style illustration)."""
        lines = []
        for level, files in enumerate(self._levels):
            if not files and level > 1:
                continue
            parts = [
                f"[{f.smallest.user_key!r}..{f.largest.user_key!r}#{f.number}]"
                for f in files
            ]
            lines.append(f"Level {level}: " + (" ".join(parts) if parts else "(empty)"))
        return "\n".join(lines)

    def check_invariants(self) -> None:
        for level in range(1, len(self._levels)):
            files = self._levels[level]
            for a, b in zip(files, files[1:]):
                assert a.smallest <= a.largest, "file range inverted"
                assert a.largest.user_key < b.smallest.user_key, (
                    f"level {level} files overlap: {a.largest!r} vs {b.smallest!r}"
                )
        numbers = self.sstable_file_numbers()
        assert len(numbers) == len(set(numbers)), "duplicate file numbers"
        for number in numbers:
            if number not in self._busy:
                assert self.storage.exists(self._sst_name(number)), (
                    f"live sstable missing on storage: {number}"
                )
