"""Tests for repro.parallel.cache: the content-addressed result store."""

import json
import pickle
import time

import numpy as np
import pytest

from repro.core.errors import ConfigurationError
from repro.obs import Observability
from repro.optics.mc_sweep import monte_carlo_ber_grid
from repro.optics.pam4 import Pam4LinkModel
from repro.parallel.cache import CACHE_SCHEMA_VERSION, ResultCache
from repro.parallel.engine import SweepEngine


class TestKeys:
    def test_key_depends_on_tag_and_spec(self):
        assert ResultCache.key("a", {"x": 1}) != ResultCache.key("b", {"x": 1})
        assert ResultCache.key("a", {"x": 1}) != ResultCache.key("a", {"x": 2})

    def test_key_is_stable(self):
        assert ResultCache.key("t", {"x": 1}) == ResultCache.key("t", {"x": 1})

    def test_empty_tag_rejected(self):
        with pytest.raises(ConfigurationError):
            ResultCache.key("", {"x": 1})


class TestInMemory:
    def test_miss_then_hit(self):
        cache = ResultCache.in_memory()
        key = cache.key("t", {"x": 1})
        hit, value = cache.get(key)
        assert not hit and value is None
        cache.put(key, [1.0, 2.0])
        hit, value = cache.get(key)
        assert hit and value == [1.0, 2.0]
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5

    def test_pickle_round_trip_exact(self):
        cache = ResultCache.in_memory()
        payload = {"arr": np.linspace(0, 1, 7), "f": 0.1 + 0.2}
        key = cache.key("t", {"p": 1})
        cache.put(key, payload)
        _, value = cache.get(key)
        assert value["arr"].tobytes() == payload["arr"].tobytes()
        assert value["f"].hex() == payload["f"].hex()

    def test_invalidate_by_tag(self):
        cache = ResultCache.in_memory()
        k1, k2 = cache.key("a", 1), cache.key("b", 2)
        cache.put(k1, "one", tag="a")
        cache.put(k2, "two", tag="b")
        assert cache.invalidate("a") == 1
        assert not cache.get(k1)[0]
        assert cache.get(k2)[0]
        assert len(cache) == 1

    def test_clear(self):
        cache = ResultCache.in_memory()
        cache.put(cache.key("t", 1), "v", tag="t")
        assert cache.clear() == 1
        assert len(cache) == 0


class TestOnDisk:
    def test_layout_and_reload(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key("t", {"x": 1})
        cache.put(key, 3.14, tag="t")
        assert (tmp_path / "objects" / f"{key}.pkl").exists()
        manifest = (tmp_path / "manifest.jsonl").read_text().splitlines()
        record = json.loads(manifest[0])
        assert record["key"] == key
        assert record["tag"] == "t"
        assert record["version"] == CACHE_SCHEMA_VERSION

        reloaded = ResultCache(tmp_path)
        hit, value = reloaded.get(key)
        assert hit and value == 3.14
        assert len(reloaded) == 1

    def test_invalidate_rewrites_manifest(self, tmp_path):
        cache = ResultCache(tmp_path)
        ka, kb = cache.key("a", 1), cache.key("b", 2)
        cache.put(ka, "one", tag="a")
        cache.put(kb, "two", tag="b")
        assert cache.invalidate("a") == 1
        assert not (tmp_path / "objects" / f"{ka}.pkl").exists()
        reloaded = ResultCache(tmp_path)
        assert [r["tag"] for r in reloaded.entries()] == ["b"]
        assert not reloaded.get(ka)[0]
        assert reloaded.get(kb)[0]

    def test_entries_filter(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(cache.key("a", 1), 1, tag="a")
        cache.put(cache.key("b", 2), 2, tag="b")
        assert len(cache.entries("a")) == 1
        assert len(cache.entries()) == 2

    def test_manifest_byte_identical_across_runs(self, tmp_path):
        """Same stores => same manifest bytes: the default ``created_s``
        stamp is the store ordinal, not wall-clock."""

        def populate(root):
            cache = ResultCache(root)
            for k in range(3):
                cache.put(cache.key("sweep", {"x": k}), float(k), tag="sweep")
            return (root / "manifest.jsonl").read_bytes()

        a = populate(tmp_path / "run_a")
        b = populate(tmp_path / "run_b")
        assert a == b
        stamps = [
            json.loads(line)["created_s"] for line in a.decode().splitlines()
        ]
        assert stamps == [0.0, 1.0, 2.0]

    def _torn_after(self, tmp_path, tail: str):
        """Two stored entries, then a third whose manifest append died
        after writing ``tail`` (its object file had already landed)."""
        cache = ResultCache(tmp_path)
        ka, kb, kc = (cache.key("t", x) for x in (1, 2, 3))
        cache.put(ka, "one", tag="t")
        cache.put(kb, "two", tag="t")
        cache.put(kc, "three", tag="t")
        manifest = tmp_path / "manifest.jsonl"
        lines = manifest.read_text().splitlines(keepends=True)
        manifest.write_text("".join(lines[:2]) + tail(lines[2]))
        return ka, kb, kc

    def test_torn_manifest_tail_reads_as_a_miss(self, tmp_path):
        ka, kb, kc = self._torn_after(tmp_path, lambda line: line[: len(line) // 2])
        reloaded = ResultCache(tmp_path)
        assert len(reloaded) == 2
        assert reloaded.get(ka) == (True, "one")
        assert reloaded.get(kb) == (True, "two")
        assert reloaded.get(kc) == (False, None)
        assert not (tmp_path / "objects" / f"{kc}.pkl").exists()
        assert (tmp_path / "manifest.jsonl").read_text().count("\n") == 2

    def test_manifest_record_missing_its_newline_is_kept(self, tmp_path):
        ka, kb, kc = self._torn_after(tmp_path, lambda line: line.rstrip("\n"))
        reloaded = ResultCache(tmp_path)
        assert [r["key"] for r in reloaded.entries()] == [ka, kb, kc]
        assert reloaded.get(kc) == (True, "three")
        assert (tmp_path / "manifest.jsonl").read_text().endswith("}\n")

    def test_put_after_reopening_a_torn_manifest(self, tmp_path):
        ka, kb, kc = self._torn_after(tmp_path, lambda line: line[:7])
        reopened = ResultCache(tmp_path)
        kd = reopened.key("t", 4)
        reopened.put(kd, "four", tag="t")
        again = ResultCache(tmp_path)
        assert [r["key"] for r in again.entries()] == [ka, kb, kd]
        assert again.get(kd) == (True, "four")
        assert again.get(kc) == (False, None)

    def test_corrupt_manifest_mid_file_raises(self, tmp_path):
        cache = ResultCache(tmp_path)
        for x in range(3):
            cache.put(cache.key("t", x), x, tag="t")
        manifest = tmp_path / "manifest.jsonl"
        lines = manifest.read_text().splitlines(keepends=True)
        manifest.write_text(lines[0] + lines[1][:9] + "\n" + lines[2])
        with pytest.raises(ConfigurationError, match="corrupt JSONL record on line 2"):
            ResultCache(tmp_path)

    def test_injected_clock_stamps_wall_time(self, tmp_path):
        ticks = iter([100.0004, 200.0])
        cache = ResultCache(tmp_path, now_fn=lambda: next(ticks))
        cache.put(cache.key("t", 1), 1, tag="t")
        cache.put(cache.key("t", 2), 2, tag="t")
        assert [r["created_s"] for r in cache.entries()] == [100.0, 200.0]


@pytest.mark.parametrize("workers", [1, 2])
def test_warm_sweep_through_a_reopened_cache_is_all_hits(tmp_path, workers):
    """The cache contract end to end: a Monte-Carlo BER grid run cold,
    then warm through a fresh on-disk cache on the same root (real disk
    lookups, not the first run's memory), gives the same bytes from
    cache hits alone, at least 5x faster."""
    powers = np.linspace(-12.0, -6.0, 4)

    def sweep():
        engine = SweepEngine(workers=workers, cache=ResultCache(tmp_path))
        start = time.perf_counter()
        results = monte_carlo_ber_grid(
            Pam4LinkModel(), powers, num_symbols=20_000, seed=0, engine=engine
        )
        return results, time.perf_counter() - start, engine.last_run

    cold, cold_s, cold_run = sweep()
    warm, warm_s, warm_run = sweep()
    assert cold_run.computed == len(powers)
    assert pickle.dumps(list(warm)) == pickle.dumps(list(cold))
    assert warm_run.computed == 0 and warm_run.cache_hits == len(powers)
    assert cold_s >= 5.0 * warm_s


class TestObservability:
    def test_counters_land(self):
        obs = Observability.sim()
        cache = ResultCache.in_memory(obs=obs)
        key = cache.key("t", {"x": 1})
        cache.get(key, tag="t")
        cache.put(key, 1, tag="t")
        cache.get(key, tag="t")
        reg = obs.metrics
        assert reg.counter("sweep.cache.misses", tag="t").value == 1
        assert reg.counter("sweep.cache.hits", tag="t").value == 1
        assert reg.counter("sweep.cache.stores", tag="t").value == 1
