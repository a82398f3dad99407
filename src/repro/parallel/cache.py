"""Content-addressed result cache for sweep tasks.

Every sweep surface in this repo is a pure function of its spec and its
seed, so a result computed once is a result computed forever -- the key
is ``sha256(version tag + canonical digest of the task spec)`` and the
value is the pickled task result (pickle round-trips floats bit-exactly,
which is what the parity tests demand of a warm cache).

Layout of an on-disk cache root::

    <root>/objects/<key>.pkl    one pickled result per key
    <root>/manifest.jsonl       one JSON record per stored entry

The manifest is append-only during normal operation; explicit
invalidation (:meth:`ResultCache.invalidate` by tag, or
:meth:`ResultCache.clear`) deletes objects and rewrites it.  Keys embed
:data:`CACHE_SCHEMA_VERSION` plus the caller's surface tag, so bumping
either orphans stale entries rather than returning them.

:meth:`ResultCache.in_memory` backs the same API with a dict of pickled
bytes -- used by the observed drill and tests, where determinism and
hermeticity matter more than persistence.
"""

from __future__ import annotations

import json
import os
import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.errors import ConfigurationError
from repro.obs import NULL_OBS
from repro.obs.export import read_jsonl
from repro.parallel.canon import spec_digest

#: Bump to orphan every existing cache entry (schema/semantics change).
CACHE_SCHEMA_VERSION = "repro.parallel.cache/1"


@dataclass
class CacheStats:
    """Lookup/store tallies since the cache was created."""

    hits: int = 0
    misses: int = 0
    stores: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class ResultCache:
    """Content-addressed store of pickled sweep results.

    Args:
        root: directory for the on-disk layout, or None for a purely
            in-memory cache (no files are ever touched).
        obs: optional :class:`~repro.obs.Observability` bundle; lookups
            and stores land on ``sweep.cache.*`` counters labeled by the
            surface tag.
        now_fn: optional clock for manifest ``created_s`` stamps.  The
            default stamps each record with its store ordinal, so two
            runs that store the same results write byte-identical
            manifests; pass ``time.time`` to record wall-clock
            provenance instead (at the cost of that determinism).
    """

    def __init__(
        self,
        root: Optional[os.PathLike] = None,
        obs=None,
        now_fn: Optional[Callable[[], float]] = None,
    ) -> None:
        self.root = Path(root) if root is not None else None
        self.obs = obs if obs is not None else NULL_OBS
        self._now_fn = now_fn
        self.stats = CacheStats()
        self._memory: Dict[str, bytes] = {}
        self._manifest: List[Dict[str, object]] = []
        if self.root is not None:
            (self.root / "objects").mkdir(parents=True, exist_ok=True)
            self._manifest = self._read_manifest()

    @classmethod
    def in_memory(cls, obs=None) -> "ResultCache":
        """A hermetic cache backed by a dict (drills, tests)."""
        return cls(root=None, obs=obs)

    # ------------------------------------------------------------------ #
    # Keys
    # ------------------------------------------------------------------ #

    @staticmethod
    def key(tag: str, spec: object) -> str:
        """Content address of one task spec under one surface tag."""
        if not tag:
            raise ConfigurationError("cache tag must be non-empty")
        return spec_digest(
            {"version": CACHE_SCHEMA_VERSION, "tag": tag, "spec": spec}
        )

    # ------------------------------------------------------------------ #
    # Lookup / store
    # ------------------------------------------------------------------ #

    def _object_path(self, key: str) -> Path:
        assert self.root is not None
        return self.root / "objects" / f"{key}.pkl"

    def get(self, key: str, tag: str = "-") -> Tuple[bool, object]:
        """(hit, value).  A miss returns ``(False, None)``."""
        blob: Optional[bytes] = None
        if self.root is None:
            blob = self._memory.get(key)
        else:
            path = self._object_path(key)
            if path.exists():
                blob = path.read_bytes()
        if blob is None:
            self.stats.misses += 1
            self.obs.metrics.counter("sweep.cache.misses", tag=tag).inc()
            return False, None
        self.stats.hits += 1
        self.obs.metrics.counter("sweep.cache.hits", tag=tag).inc()
        return True, pickle.loads(blob)

    def put(self, key: str, value: object, tag: str = "-") -> None:
        """Store one result and append its manifest record."""
        blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        record: Dict[str, object] = {
            "key": key,
            "tag": tag,
            "version": CACHE_SCHEMA_VERSION,
            "bytes": len(blob),
        }
        if self.root is None:
            self._memory[key] = blob
            self._manifest.append(record)
        else:
            # Deterministic by default: the stamp is the store ordinal,
            # not wall-clock, so same stores => same manifest bytes.
            record["created_s"] = (
                float(len(self._manifest))
                if self._now_fn is None
                else round(self._now_fn(), 3)
            )
            path = self._object_path(key)
            tmp = path.with_suffix(".tmp")
            tmp.write_bytes(blob)
            os.replace(tmp, path)
            self._manifest.append(record)
            with (self.root / "manifest.jsonl").open("a") as fh:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
        self.stats.stores += 1
        self.obs.metrics.counter("sweep.cache.stores", tag=tag).inc()

    # ------------------------------------------------------------------ #
    # Manifest / invalidation
    # ------------------------------------------------------------------ #

    def _read_manifest(self) -> List[Dict[str, object]]:
        """The on-disk manifest, healed of a torn final record.

        A writer killed mid-append leaves a partial last line (or a
        whole record without its newline): a partial line is dropped,
        and the manifest is rewritten so the next :meth:`put` starts on
        a fresh line.  The dropped record's object file (written before
        the record) is deleted with every other object no record names,
        so that entry reads as a miss.  A corrupt line with complete
        records after it raises
        :class:`~repro.core.errors.ConfigurationError`.
        """
        assert self.root is not None
        path = self.root / "manifest.jsonl"
        if not path.exists():
            return []
        records = read_jsonl(path)
        text = path.read_bytes()
        if records.truncated_records or (text and not text.endswith(b"\n")):
            self._write_manifest(records)
            named = {f"{record['key']}.pkl" for record in records}
            for obj in (self.root / "objects").glob("*.pkl"):
                if obj.name not in named:
                    obj.unlink()
        return list(records)

    def _write_manifest(self, records: List[Dict[str, object]]) -> None:
        assert self.root is not None
        (self.root / "manifest.jsonl").write_text(
            "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
        )

    def entries(self, tag: Optional[str] = None) -> List[Dict[str, object]]:
        """Manifest records, optionally filtered by surface tag."""
        return [r for r in self._manifest if tag is None or r.get("tag") == tag]

    def __len__(self) -> int:
        return len(self._manifest)

    def invalidate(self, tag: Optional[str] = None) -> int:
        """Drop entries (all, or those under one tag); returns the count.

        On disk this deletes the object files and rewrites the manifest;
        lookups of the dropped keys miss afterwards.
        """
        if tag is None:
            dropped, kept = list(self._manifest), []
        else:
            dropped = [r for r in self._manifest if r.get("tag") == tag]
            kept = [r for r in self._manifest if r.get("tag") != tag]
        for record in dropped:
            key = str(record["key"])
            if self.root is None:
                self._memory.pop(key, None)
            else:
                self._object_path(key).unlink(missing_ok=True)
        self._manifest = kept
        if self.root is not None:
            self._write_manifest(kept)
        self.obs.metrics.counter(
            "sweep.cache.invalidated", tag=tag if tag is not None else "*"
        ).add(float(len(dropped)))
        return len(dropped)

    def clear(self) -> int:
        """Drop every entry."""
        return self.invalidate(tag=None)
