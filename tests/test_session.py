"""Tests for the CompilationSession content-addressed artifact cache."""

import os

import pytest

from repro.compiler import compile_program
from repro.il.printer import format_module
from repro.observability import Observability
from repro.pipeline import (
    CompilationSession,
    module_cache_key,
    module_content_key,
    profile_cache_key,
)
from repro.experiments.pipeline import run_pipeline
from repro.inliner.params import InlineParameters
from repro.opt import optimize_module
from repro.pipeline import session as session_module
from repro.pipeline.session import CACHE_FORMAT
from repro.profiler.profile import RunSpec
from repro.vm.machine import Machine

#: The versioned store directory entries of this format land in.
STORE = f"v{CACHE_FORMAT}"

SOURCE = """
#include <sys.h>
int triple(int x) { return 3 * x; }
int main(void) { print_int(triple(14)); putchar(10); return 0; }
"""

OTHER_SOURCE = """
#include <sys.h>
int main(void) { putchar('z'); return 0; }
"""


def _cache_counters(obs):
    return {
        k.removeprefix("pipeline.cache."): v
        for k, v in obs.metrics.counters.items()
        if k.startswith("pipeline.cache.")
    }


class TestKeys:
    def test_module_key_stable_and_sensitive(self):
        key = module_cache_key(SOURCE)
        assert key == module_cache_key(SOURCE)
        assert key != module_cache_key(SOURCE + " ")

    def test_module_key_covers_libc_and_headers(self, monkeypatch):
        import repro.runtime

        key = module_cache_key(SOURCE)
        monkeypatch.setattr(
            repro.runtime, "LIBC_SOURCE", repro.runtime.LIBC_SOURCE + "\n"
        )
        edited_libc = module_cache_key(SOURCE)
        assert edited_libc != key
        headers = repro.runtime.standard_headers()
        headers["sys.h"] += "\n"
        monkeypatch.setattr(repro.runtime, "standard_headers", lambda: headers)
        assert module_cache_key(SOURCE) not in (key, edited_libc)

    def test_content_key_tracks_code_changes(self):
        session = CompilationSession()
        module = session.compiled_module(SOURCE)
        key = module_content_key(module)
        assert key == module_content_key(module.clone())
        mutated = module.clone()
        mutated.functions["main"].body.pop()
        assert module_content_key(mutated) != key

    def test_profile_key_depends_on_inputs(self):
        session = CompilationSession()
        module = session.compiled_module(SOURCE)
        spec_a = [RunSpec(stdin=b"a")]
        spec_b = [RunSpec(stdin=b"b")]
        assert profile_cache_key(module, spec_a) != profile_cache_key(
            module, spec_b
        )
        assert profile_cache_key(module, spec_a) == profile_cache_key(
            module.clone(), [RunSpec(stdin=b"a")]
        )


class TestMemoryCache:
    def test_second_compile_is_a_hit(self):
        obs = Observability.create()
        session = CompilationSession(obs=obs)
        session.compiled_module(SOURCE)
        assert _cache_counters(obs) == {"misses": 1}
        session.compiled_module(SOURCE)
        assert _cache_counters(obs) == {"misses": 1, "hits": 1}

    def test_returned_module_is_isolated_clone(self):
        session = CompilationSession()
        first = session.compiled_module(SOURCE)
        text = format_module(first)
        first.functions["main"].body.pop()  # vandalize the caller's copy
        second = session.compiled_module(SOURCE)
        assert format_module(second) == text
        assert Machine(second).run().exit_code == 0

    def test_profile_cached_and_copied(self):
        obs = Observability.create()
        session = CompilationSession(obs=obs)
        module = session.compiled_module(SOURCE)
        specs = [RunSpec()]
        profile = session.profile(module, specs)
        profile.node_weights["main"] = -1.0  # vandalize the caller's copy
        again = session.profile(module, specs)
        assert again.node_weights["main"] != -1.0
        assert _cache_counters(obs)["hits"] == 1

    def test_profile_shared_across_inline_parameters(self):
        # Profiling takes no inliner parameters, so a second threshold
        # reuses both cached profiles (both thresholds inline triple).
        session = CompilationSession()
        module = session.compiled_module(SOURCE)
        counts = []
        for threshold in (0.5, 1.0):
            obs = Observability.create()
            run_pipeline(
                module,
                [RunSpec()],
                InlineParameters(weight_threshold=threshold),
                session=session,
                obs=obs,
            )
            counts.append(_cache_counters(obs))
        assert counts == [{"misses": 2}, {"hits": 2}]

    def test_eviction_counted(self, monkeypatch):
        monkeypatch.setattr(session_module, "MAX_ENTRIES", 1)
        obs = Observability.create()
        session = CompilationSession(obs=obs)
        session.compiled_module(SOURCE)
        session.compiled_module(OTHER_SOURCE)
        assert _cache_counters(obs)["evictions"] == 1
        # The first entry is gone: compiling it again is a miss.
        session.compiled_module(SOURCE)
        assert _cache_counters(obs)["misses"] == 3


class TestDiskStore:
    def test_roundtrip_across_sessions(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        warm_obs = Observability.create()
        producer = CompilationSession(cache_dir=cache_dir)
        baseline = format_module(producer.compiled_module(SOURCE))

        consumer = CompilationSession(cache_dir=cache_dir, obs=warm_obs)
        module = consumer.compiled_module(SOURCE)
        counters = _cache_counters(warm_obs)
        assert counters.get("disk_hits") == 1
        assert counters.get("misses") is None
        assert format_module(module) == baseline

    def test_corrupt_entry_is_a_miss_not_an_error(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        CompilationSession(cache_dir=cache_dir).compiled_module(SOURCE)
        store = tmp_path / "cache" / STORE
        entries = list(store.rglob("*.pkl"))
        assert entries
        for entry in entries:
            entry.write_bytes(b"\x00garbage not pickle")

        obs = Observability.create()
        session = CompilationSession(cache_dir=cache_dir, obs=obs)
        module = session.compiled_module(SOURCE)  # must not raise
        assert Machine(module).run().exit_code == 0
        assert _cache_counters(obs)["misses"] == 1

    def test_unwritable_dir_never_breaks_compiles(self, tmp_path, monkeypatch):
        session = CompilationSession(cache_dir=str(tmp_path / "cache"))
        monkeypatch.setattr(os, "makedirs", _raise_oserror)
        module = session.compiled_module(SOURCE)  # store fails silently
        assert Machine(module).run().exit_code == 0

    def test_clear_disk(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        session = CompilationSession(cache_dir=cache_dir)
        session.compiled_module(SOURCE)
        assert list((tmp_path / "cache" / STORE).iterdir())
        session.clear(disk=True)
        assert not list((tmp_path / "cache" / STORE).iterdir())
        obs = Observability.create()
        again = CompilationSession(cache_dir=cache_dir, obs=obs)
        again.compiled_module(SOURCE)
        assert _cache_counters(obs)["misses"] == 1


def _raise_oserror(*args, **kwargs):
    raise OSError("read-only file system")


class TestShardedLayout:
    def test_entries_live_in_two_hex_shards(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        CompilationSession(cache_dir=cache_dir).compiled_module(SOURCE)
        entries = list((tmp_path / "cache" / STORE).rglob("*.pkl"))
        assert len(entries) == 1
        entry = entries[0]
        assert entry.parent.name == entry.stem[:2]
        assert entry.parent.parent.name == "module"

    def test_spec_round_trip(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        session = CompilationSession(cache_dir=cache_dir)
        assert session.spec() == {"cache_dir": cache_dir}
        clone = CompilationSession.from_spec(session.spec())
        assert clone.cache_dir == cache_dir
        assert CompilationSession.from_spec(None) is None


def _hammer_cache(args):
    """Worker for the concurrency test: compile both sources repeatedly."""
    cache_dir, rounds = args
    digests = set()
    for _ in range(rounds):
        session = CompilationSession(cache_dir=cache_dir)
        for source in (SOURCE, OTHER_SOURCE):
            digests.add(format_module(session.compiled_module(source)))
    return sorted(digests)


class TestCrossProcessSafety:
    def test_concurrent_processes_never_corrupt_the_store(self, tmp_path):
        import multiprocessing

        cache_dir = str(tmp_path / "cache")
        context = multiprocessing.get_context("fork")
        with context.Pool(4) as pool:
            digest_sets = pool.map(_hammer_cache, [(cache_dir, 5)] * 4)
        # Every process saw the same two modules...
        assert all(digests == digest_sets[0] for digests in digest_sets)
        assert len(digest_sets[0]) == 2
        # ...and the store they all wrote is intact and readable.
        obs = Observability.create()
        session = CompilationSession(cache_dir=cache_dir, obs=obs)
        for source in (SOURCE, OTHER_SOURCE):
            assert Machine(session.compiled_module(source)).run().exit_code == 0
        counters = _cache_counters(obs)
        assert counters.get("disk_hits") == 2
        assert counters.get("misses") is None


class TestPreOptimizedCaching:
    def test_compiled_module_is_pre_optimized(self):
        reference = compile_program(SOURCE)
        optimize_module(reference)
        module = CompilationSession().compiled_module(SOURCE)
        assert format_module(module) == format_module(reference)
