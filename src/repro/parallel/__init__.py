"""Deterministic parallel sweeps with content-addressed result caching.

The repo's sweep surfaces -- Monte-Carlo PAM4 validation (Fig 11a),
goodput Monte-Carlo grids (Fig 15b), chaos-scenario ensembles,
scheduler parameter sweeps, and the slice-shape search -- all fan out
through one engine:

- :class:`SweepEngine` (:mod:`repro.parallel.engine`) -- ``pmap`` over a
  ``multiprocessing`` pool with positional seed splitting via
  ``np.random.SeedSequence.spawn``; results are bit-identical for any
  worker count and chunk size, and ``pmap_serial`` is the in-process
  oracle.
- :class:`ResultCache` (:mod:`repro.parallel.cache`) -- per-task
  content-addressed pickle store (disk layout with a JSONL manifest, or
  purely in-memory), keyed by schema version + surface tag + canonical
  spec digest, with explicit invalidation.
- :mod:`repro.parallel.canon` -- the canonical byte encoding behind the
  digests.
- :mod:`repro.parallel.shm` -- zero-copy ndarray shipping: large task
  payloads are packed once into a ``multiprocessing.shared_memory``
  arena and workers rebuild read-only views from a tiny header spec,
  so shipping cost stops scaling with ``chunks x payload``
  (``SweepEngine(ship="shm")``).

``tests/parallel/test_cache.py`` holds the cache contract end to end:
one sweep run cold, then warm through a reopened on-disk cache, must
be byte-identical, 100% hits and at least 5x faster.

See ``docs/SYSTEMS.md`` §11 for the engine semantics, the seed-splitting
contract, and the cache key/invalidation rules.
"""

from repro.parallel.cache import CACHE_SCHEMA_VERSION, CacheStats, ResultCache
from repro.parallel.canon import canonical_bytes, fn_identity, spec_digest
from repro.parallel.engine import SweepEngine, SweepRunStats
from repro.parallel.shm import (
    ArenaSpec,
    ArrayRef,
    ShmArena,
    extract_arrays,
    restore_arrays,
)

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "ArenaSpec",
    "ArrayRef",
    "CacheStats",
    "ResultCache",
    "ShmArena",
    "SweepEngine",
    "SweepRunStats",
    "canonical_bytes",
    "extract_arrays",
    "fn_identity",
    "restore_arrays",
    "spec_digest",
]
