"""Wall-clock self time per layer, measured from outside ``src/``.

:class:`LayerTracer` wraps the public functions and methods of every
module named in :data:`LAYER_OF_MODULE` and restores them afterwards.
Nothing under ``src/repro`` is edited, so the engine code stays free of
wall-clock reads and the determinism lint still holds.

* Methods are wrapped on their defining class (plain, static, class
  methods and property getters).
* A module-level function is replaced in the defining module *and* in
  every other loaded ``repro`` module whose namespace bound the same
  object with ``from ... import``.
* Generator functions are timed per ``__next__``, never at creation, and
  coroutine functions per step (each resumption of the coroutine), so a
  suspended coroutine is never charged for other tasks' work.

Self time is a span's duration minus the time its wrapped children took.
Time spent outside every wrapped span (the benchmark's own code, the
standard library, the asyncio loop and the few helpers bound through
default arguments) is the *unattributed* remainder, reported as such.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from typing import Callable, Dict, List, Tuple

#: Module -> layer.  Modules left out (``sim.clock``, ``sim.faults``,
#: ``vlog``, ``net.mp``, ``engines.btree``, ``engines.wiredtiger``,
#: ``apps``, ``workloads``) are either not exercised by the benchmark or
#: too small to time without distorting their callers.
LAYER_OF_MODULE: Dict[str, str] = {
    "repro.core.guards": "core.guards",
    "repro.core.pebbles": "core.pebbles",
    "repro.engines.lsm.store": "engines.lsm",
    "repro.engines.base": "engines.base",
    "repro.memtable.memtable": "memtable",
    "repro.memtable.skiplist": "memtable",
    "repro.wal.log": "wal",
    "repro.sstable.builder": "sstable.builder",
    "repro.sstable.reader": "sstable.reader",
    "repro.sstable.format": "sstable.format",
    "repro.sstable.block_cache": "sstable.block_cache",
    "repro.sstable.merger": "sstable.merger",
    "repro.bloom.bloom": "bloom",
    "repro.version.files": "version",
    "repro.version.manifest": "version",
    "repro.net.client": "net.client",
    "repro.net.protocol": "net.protocol",
    "repro.net.transport": "net.transport",
    "repro.net.router": "net.router",
    "repro.net.server": "net.server",
    "repro.sim.storage": "sim.storage",
    "repro.sim.device": "sim.storage",
    "repro.sim.cache": "sim.storage",
    "repro.sim.cpu": "sim.storage",
    "repro.sim.executor": "sim.executor",
    "repro.sim.ratelimit": "sim.executor",
    "repro.util.varint": "util.varint",
    "repro.util.murmur": "util.murmur",
    "repro.util.keys": "util.keys",
    "repro.util.crc": "util.crc",
    "repro.obs.metrics": "obs",
    "repro.obs.windows": "obs",
    "repro.obs.trace": "obs",
    "repro.obs.recorder": "obs",
    "repro.obs.ledger": "obs",
}

#: Layers in report order (each appears once).
LAYERS: List[str] = list(dict.fromkeys(LAYER_OF_MODULE.values()))

_clock = time.perf_counter


class LayerTracer:
    """Install wrappers with :meth:`install`; undo them with :meth:`uninstall`.

    ``calls[i]`` and ``self_s[i]`` accumulate for ``LAYERS[i]``.
    ``function_calls`` counts calls (or generator steps) per wrapped
    function, keyed ``module:qualname``.  ``result_hooks`` maps such a
    key to a callable run on every return value of that function (used
    for counters that only the returned object carries).
    """

    def __init__(self) -> None:
        self.calls = [0] * len(LAYERS)
        self.self_s = [0.0] * len(LAYERS)
        self._cells: Dict[str, List[int]] = {}
        self.result_hooks: Dict[str, Callable[[object], None]] = {}
        #: Child-time accumulators of the open spans, innermost last.
        self._stack: List[float] = []
        #: (namespace, name, original) in install order.
        self._patched: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    @property
    def function_calls(self) -> Dict[str, int]:
        return {key: cell[0] for key, cell in self._cells.items()}

    def layer_report(self) -> Dict[str, Tuple[int, float]]:
        return {
            layer: (self.calls[i], self.self_s[i]) for i, layer in enumerate(LAYERS)
        }

    # ------------------------------------------------------------------
    # Span accounting
    # ------------------------------------------------------------------
    def _span(self, index: int, cell: List[int], step: Callable, *args):
        """Run ``step(*args)`` as one span of layer ``index``."""
        stack = self._stack
        stack.append(0.0)
        start = _clock()
        try:
            return step(*args)
        finally:
            elapsed = _clock() - start
            self.self_s[index] += elapsed - stack.pop()
            self.calls[index] += 1
            cell[0] += 1
            if stack:
                stack[-1] += elapsed

    def _wrap(self, fn: Callable, layer: str, key: str) -> Callable:
        index = LAYERS.index(layer)
        cell = self._cells.setdefault(key, [0])
        span = self._span
        hook = self.result_hooks.get(key)

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                return _TimedIterator(span, index, cell, fn(*args, **kwargs))

            return gen_wrapper

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def coro_wrapper(*args, **kwargs):
                return await _TimedSteps(span, index, cell, fn(*args, **kwargs))

            return coro_wrapper

        calls, self_s, stack = self.calls, self.self_s, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = _clock() - start
                self_s[index] += elapsed - stack.pop()
                calls[index] += 1
                cell[0] += 1
                if stack:
                    stack[-1] += elapsed
            if hook is not None:
                hook(result)
            return result

        return wrapper

    # ------------------------------------------------------------------
    # Install / restore
    # ------------------------------------------------------------------
    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = {name: importlib.import_module(name) for name in LAYER_OF_MODULE}
        functions: Dict[int, Tuple[object, Callable]] = {}
        for modname, module in modules.items():
            layer = LAYER_OF_MODULE[modname]
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != modname:
                    continue
                if inspect.isfunction(obj) and not inspect.isasyncgenfunction(obj):
                    key = f"{modname}:{obj.__qualname__}"
                    functions[id(obj)] = (obj, self._wrap(obj, layer, key))
                elif inspect.isclass(obj):
                    self._wrap_class(obj, layer, modname)
        # Replace each function wherever a repro module bound it.
        for module in [m for n, m in sorted(sys.modules.items()) if n.startswith("repro")]:
            namespace = vars(module)
            for name, value in list(namespace.items()):
                entry = functions.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patched.append((namespace, name, value))
                    namespace[name] = entry[1]

    def _wrap_class(self, cls: type, layer: str, modname: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            key = f"{modname}:{cls.__qualname__}.{attr}"
            if isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(raw.__func__, layer, key))
            elif isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, layer, key))
            elif isinstance(raw, property) and raw.fget is not None:
                new = property(
                    self._wrap(raw.fget, layer, key), raw.fset, raw.fdel, raw.__doc__
                )
            elif inspect.isfunction(raw) and not inspect.isasyncgenfunction(raw):
                new = self._wrap(raw, layer, key)
            else:
                continue
            self._patched.append((cls, attr, raw))
            setattr(cls, attr, new)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)
        self._patched.clear()

    def patched_sites(self) -> List[Tuple[object, str, object]]:
        """What :meth:`install` replaced (for restore checks)."""
        return list(self._patched)


def is_restored(sites: List[Tuple[object, str, object]]) -> bool:
    """True when every site holds its original object again."""
    for owner, name, original in sites:
        current = owner.get(name) if isinstance(owner, dict) else vars(owner).get(name)
        if current is not original:
            return False
    return True


class _TimedIterator:
    """A generator proxy timing each ``__next__`` as one span."""

    __slots__ = ("_span", "_index", "_cell", "_gen")

    def __init__(self, span, index: int, cell: List[int], gen) -> None:
        self._span = span
        self._index = index
        self._cell = cell
        self._gen = gen

    def __iter__(self):
        return self

    def __next__(self):
        return self._span(self._index, self._cell, self._gen.__next__)

    def send(self, value):
        return self._span(self._index, self._cell, self._gen.send, value)

    def throw(self, *exc):
        return self._span(self._index, self._cell, self._gen.throw, *exc)

    def close(self) -> None:
        self._gen.close()


class _TimedSteps(_TimedIterator):
    """Awaitable proxy timing each resumption of a coroutine."""

    __slots__ = ()

    def __await__(self):
        return self

    def __next__(self):
        return self._span(self._index, self._cell, self._gen.send, None)
