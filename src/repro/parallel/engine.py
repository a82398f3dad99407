"""Deterministic parallel fan-out: :meth:`SweepEngine.pmap`.

The determinism contract
------------------------

``pmap(fn, tasks, seed=s)`` returns **bit-identical results for any
worker count (1..N) and any chunk size**, because nothing that affects a
task's value depends on scheduling:

1. *Seed splitting is positional.*  Task ``i`` always receives the
   ``i``-th child of ``np.random.SeedSequence(s).spawn(len(tasks))``.
   A child's stream is fully determined by ``(s, i)`` -- not by which
   worker runs it, which chunk carries it, or how many siblings exist
   beside it in the chunk.
2. *Chunks are index ranges.*  Tasks are sharded into consecutive
   ``(index, task, seed)`` slices **after** seed assignment, so chunking
   is pure transport.
3. *Results are reassembled by index.*  Workers return
   ``(index, value)`` pairs; the parent writes them back into position.

:meth:`SweepEngine.pmap_serial` is the in-process oracle: a plain loop
over the same per-task seeds, no pool, no cache.  The property suite
(``tests/parallel/test_determinism.py``) pins ``pmap`` to it byte-for-
byte across worker counts {1, 2, 4} and random chunk sizes.

Caching
-------

Give the engine a :class:`~repro.parallel.cache.ResultCache` and a
``cache_tag`` and each task is content-addressed individually:
``key = sha256(schema version + tag + fn identity + task spec + seed
identity)``.  Warm lookups skip the pool entirely; partial hits compute
only the missing indices.  Because the per-task seed identity is part
of the key, a cached value can never be replayed under a different
stream.

Observability
-------------

With an :class:`~repro.obs.Observability` bundle attached, every call
opens a ``sweep.pmap`` span, every executed chunk lands a
``sweep.chunk`` span (serial path) or a worker-measured duration
(parallel path) on the ``sweep.chunk.duration_ms`` histogram, and the
``sweep.tasks.*`` / ``sweep.cache.*`` counters feed the NOC report and
its SLO gate.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.errors import ConfigurationError
from repro.obs import NULL_OBS
from repro.parallel.cache import ResultCache
from repro.parallel.canon import fn_identity
from repro.parallel.shm import (
    ArenaSpec,
    ShmArena,
    extract_arrays,
    restore_arrays,
)

#: One task as shipped to a worker: (index, task, per-task seed or None).
_Item = Tuple[int, object, Optional[np.random.SeedSequence]]

_MISSING = object()

#: Pool start method (see :class:`SweepEngine`).
_START_METHOD = (
    "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
)


def _apply(fn: Callable, task: object, seed) -> object:
    return fn(task) if seed is None else fn(task, seed)


def _run_chunk(payload: Tuple[Callable, List[_Item]]):
    """Worker entry point: run one chunk, report wall duration (ms)."""
    fn, items = payload
    t0 = time.perf_counter()
    results = [(index, _apply(fn, task, seed)) for index, task, seed in items]
    return results, (time.perf_counter() - t0) * 1e3


#: Arenas this worker process has attached, by segment name.  A pool
#: worker attaches each arena once and holds the mapping until process
#: exit (pools are per-pmap-call, so exit promptly follows the drain);
#: keeping the mapping open also makes it safe for task results to alias
#: arena views -- they are pickled for the trip home while the mapping
#: is still live.
_ATTACHED: dict = {}


def _attached_arena(spec: ArenaSpec) -> ShmArena:
    arena = _ATTACHED.get(spec.name)
    if arena is None:
        arena = ShmArena.attach(spec)
        _ATTACHED[spec.name] = arena
    return arena


def _run_chunk_shm(payload: Tuple[Callable, ArenaSpec, List[_Item]]):
    """Worker entry point for shm shipping: attach, rebuild views, run."""
    fn, spec, items = payload
    views = _attached_arena(spec).views()
    t0 = time.perf_counter()
    results = [
        (index, _apply(fn, restore_arrays(task, views), seed))
        for index, task, seed in items
    ]
    return results, (time.perf_counter() - t0) * 1e3


@dataclass
class SweepRunStats:
    """What the last :meth:`SweepEngine.pmap` call did."""

    tasks: int = 0
    computed: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    chunks: int = 0
    workers: int = 1
    parallel: bool = False
    shm_arrays: int = 0
    shm_bytes: int = 0


class SweepEngine:
    """Shards task lists over a process pool, deterministically.

    Args:
        workers: process count; None means ``os.cpu_count()``.  With one
            worker (or one pending chunk) everything runs in-process --
            the serial fallback, which doubles as the parity oracle.
        chunk_size: tasks per shipped chunk; None picks
            ``ceil(pending / (workers * 4))`` so each worker sees a few
            chunks (smoothing stragglers without drowning in transport).
        cache: optional :class:`ResultCache`; enables per-task result
            caching whenever ``pmap`` is called with a ``cache_tag``.
        obs: optional observability bundle (spans, counters, histogram).
        ship: ``"pickle"`` ships task specs whole through the pool pipe;
            ``"shm"`` extracts every ndarray of at least
            :data:`~repro.parallel.shm.DEFAULT_MIN_BYTES` into one
            shared-memory arena per call (see :mod:`repro.parallel.shm`)
            and ships tiny placeholders instead, so a payload referenced
            by every task crosses the process boundary once instead of
            once per chunk.  Tasks with no qualifying arrays fall back
            to plain pickle shipping automatically.  Results are
            unaffected (workers return values through the normal pipe);
            cache keys are computed on the original, un-stripped specs,
            so a cached value is ship-mode independent.

    The pool starts workers with ``fork`` where available (cheap on
    Linux), else ``spawn``.  Parallel runs require ``fn`` and tasks to be
    picklable -- module-level functions and plain-data specs; the serial
    path has no such constraint.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        chunk_size: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        obs=None,
        ship: str = "pickle",
    ) -> None:
        if workers is not None and workers < 1:
            raise ConfigurationError("workers must be >= 1")
        if chunk_size is not None and chunk_size < 1:
            raise ConfigurationError("chunk_size must be >= 1")
        if ship not in ("pickle", "shm"):
            raise ConfigurationError(
                f"ship must be 'pickle' or 'shm', got {ship!r}"
            )
        self.workers = workers if workers is not None else (os.cpu_count() or 1)
        self.chunk_size = chunk_size
        self.cache = cache
        self.obs = obs if obs is not None else NULL_OBS
        self.ship = ship
        self.last_run = SweepRunStats()

    # ------------------------------------------------------------------ #
    # Seed splitting
    # ------------------------------------------------------------------ #

    @staticmethod
    def task_seeds(
        seed: Optional[int], num_tasks: int
    ) -> List[Optional[np.random.SeedSequence]]:
        """The per-task seed assignment: child ``i`` of the root stream.

        This is the whole seed-splitting contract -- surfaces that need a
        serial twin outside the engine reuse it to stay bit-identical.
        """
        if seed is None:
            return [None] * num_tasks
        return list(np.random.SeedSequence(seed).spawn(num_tasks))

    # ------------------------------------------------------------------ #
    # The serial oracle
    # ------------------------------------------------------------------ #

    def pmap_serial(
        self, fn: Callable, tasks: Sequence[object], *, seed: Optional[int] = None
    ) -> List[object]:
        """Plain in-process loop with the same per-task seeds: the oracle."""
        items = list(tasks)
        seeds = self.task_seeds(seed, len(items))
        return [_apply(fn, task, s) for task, s in zip(items, seeds)]

    # ------------------------------------------------------------------ #
    # The engine
    # ------------------------------------------------------------------ #

    def pmap(
        self,
        fn: Callable,
        tasks: Sequence[object],
        *,
        seed: Optional[int] = None,
        cache_tag: Optional[str] = None,
    ) -> List[object]:
        """Deterministic parallel map; see the module docstring.

        Args:
            fn: ``fn(task)`` or, when ``seed`` is given, ``fn(task,
                seed_sequence)``.  Must be module-level/picklable for
                parallel runs.
            tasks: the task specs, one result per entry, order preserved.
            seed: root seed for positional seed splitting (None = no
                seeds are passed).
            cache_tag: surface tag enabling the per-task result cache
                (requires the engine to have been built with one).
        """
        items = list(tasks)
        n = len(items)
        seeds = self.task_seeds(seed, n)
        stats = SweepRunStats(tasks=n, workers=self.workers)
        self.last_run = stats
        obs = self.obs
        use_cache = self.cache is not None and cache_tag is not None
        tag = cache_tag or "-"

        with obs.tracer.span(
            "sweep.pmap", tasks=n, workers=self.workers, tag=tag
        ) as span:
            obs.metrics.counter("sweep.pmap.calls", tag=tag).inc()
            results: List[object] = [_MISSING] * n

            keys: List[Optional[str]] = [None] * n
            if use_cache:
                assert self.cache is not None
                identity = fn_identity(fn)
                for i, (task, s) in enumerate(zip(items, seeds)):
                    key = self.cache.key(
                        tag, {"fn": identity, "task": task, "seed": s}
                    )
                    keys[i] = key
                    hit, value = self.cache.get(key, tag=tag)
                    if hit:
                        results[i] = value
            pending = [i for i in range(n) if results[i] is _MISSING]
            if use_cache:
                assert self.cache is not None
                stats.cache_hits = n - len(pending)
                stats.cache_misses = len(pending)
                obs.metrics.counter("sweep.tasks.cached", tag=tag).add(
                    float(stats.cache_hits)
                )

            # Zero-copy shipping: pull big ndarrays out of the pending
            # specs into one shared-memory arena; chunks carry tiny
            # placeholders.  Cache keys above were computed on the
            # original specs, so caching is ship-mode independent.
            arena: Optional[ShmArena] = None
            if self.ship == "shm" and pending:
                stripped, arrays = extract_arrays([items[i] for i in pending])
                if arrays:
                    arena = ShmArena.pack(arrays)
                    stats.shm_arrays = len(arrays)
                    stats.shm_bytes = sum(int(a.nbytes) for a in arrays)
                    obs.metrics.counter("sweep.shm.arenas", tag=tag).inc()
                    obs.metrics.counter("sweep.shm.arrays", tag=tag).add(
                        float(stats.shm_arrays)
                    )
                    obs.metrics.counter("sweep.shm.bytes", tag=tag).add(
                        float(stats.shm_bytes)
                    )
                    pending_items = [
                        (i, stripped[k], seeds[i]) for k, i in enumerate(pending)
                    ]
            if arena is None:
                pending_items = [(i, items[i], seeds[i]) for i in pending]
            chunks = self._chunk(pending_items)
            stats.chunks = len(chunks)
            stats.computed = len(pending)
            parallel = self.workers > 1 and len(chunks) > 1
            stats.parallel = parallel

            try:
                if parallel:
                    ctx = multiprocessing.get_context(_START_METHOD)
                    with ctx.Pool(
                        processes=min(self.workers, len(chunks))
                    ) as pool:
                        if arena is not None:
                            payloads = [
                                (fn, arena.spec, chunk) for chunk in chunks
                            ]
                            runner = _run_chunk_shm
                        else:
                            payloads = [(fn, chunk) for chunk in chunks]
                            runner = _run_chunk
                        for chunk_results, wall_ms in pool.imap(runner, payloads):
                            for index, value in chunk_results:
                                results[index] = value
                            obs.metrics.histogram(
                                "sweep.chunk.duration_ms"
                            ).observe(wall_ms)
                            obs.metrics.counter(
                                "sweep.chunks.completed", tag=tag
                            ).inc()
                else:
                    views: List[np.ndarray] = []
                    if arena is not None:
                        # The serial parity twin: round-trip through the
                        # arena bytes exactly as a worker would, but copy
                        # the views (still read-only) so in-process
                        # results may safely alias them after teardown.
                        twin = ShmArena.attach(arena.spec)
                        try:
                            for v in twin.views():
                                c = v.copy()
                                c.flags.writeable = False
                                views.append(c)
                        finally:
                            twin.close()
                    for chunk in chunks:
                        with obs.tracer.span(
                            "sweep.chunk", size=len(chunk), tag=tag
                        ) as chunk_span:
                            for index, task, s in chunk:
                                if arena is not None:
                                    task = restore_arrays(task, views)
                                results[index] = _apply(fn, task, s)
                        obs.metrics.histogram("sweep.chunk.duration_ms").observe(
                            chunk_span.duration_ms
                        )
                        obs.metrics.counter("sweep.chunks.completed", tag=tag).inc()
            finally:
                if arena is not None:
                    arena.destroy()

            if use_cache:
                assert self.cache is not None
                for i in pending:
                    key = keys[i]
                    assert key is not None
                    self.cache.put(key, results[i], tag=tag)

            obs.metrics.counter("sweep.tasks.completed", tag=tag).add(float(n))
            span.set_attr("computed", stats.computed)
            span.set_attr("cache_hits", stats.cache_hits)
        assert not any(r is _MISSING for r in results)
        return results

    def _chunk(self, items: List[_Item]) -> List[List[_Item]]:
        if not items:
            return []
        size = self.chunk_size
        if size is None:
            size = max(1, math.ceil(len(items) / (self.workers * 4)))
        return [items[i : i + size] for i in range(0, len(items), size)]
