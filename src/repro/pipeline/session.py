"""CompilationSession: content-addressed caching of pipeline artifacts.

A session maps stable hash keys to the two expensive artifacts of the
experiment pipeline:

- **compiled modules**, keyed over the source text, libc and the
  standard headers — the cached module is already pre-optimized with
  the five-pass set, and lookups return a
  :meth:`~repro.il.module.ILModule.clone` so callers can mutate freely;
- **profiles**, keyed over (module content, input fingerprints) — the
  module content key covers every instruction (including call-site
  ids), so a profile is only ever replayed against the exact code it
  was measured on. Nothing else goes into the key: profiling takes no
  inliner parameters, so a second ``--threshold`` reuses the profile.

An optional on-disk store (``.repro-cache/`` by convention) makes the
cache survive across processes — and is **shared between concurrent
processes** (the worker processes of ``parallel_map``). The store is
versioned under ``v<FORMAT>/``, sharded as
``v<FORMAT>/<kind>/<first-two-hex-chars>/<key>.pkl`` so no single
directory grows unbounded, and process-safe by construction:

- writes go to a temp file and land via atomic ``os.replace``, so a
  killed writer can never leave a truncated entry under the final name;
- a store-wide advisory lock (``fcntl.flock`` on ``.lock`` where
  available) serializes writers, so two processes storing the same key
  never interleave.

The store stays corruption-tolerant by design: an unreadable,
truncated, or wrong-format entry is silently a miss — never an error —
so a stale or damaged cache directory can always be reused or simply
deleted.

The disk store is never evicted; delete the directory (or call
:meth:`CompilationSession.clear` with ``disk=True``) to reclaim it.
Hit/miss/evict counts are reported as ``pipeline.cache.*`` metrics on
the session's (or each call's) Observability.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import pickle
import threading
from collections import OrderedDict
from contextlib import contextmanager
from typing import Any

try:  # advisory locking is POSIX-only; elsewhere atomic rename suffices
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None

from repro import runtime
from repro.observability import Observability, resolve

#: Bump when the pickled artifact layout changes; old entries become
#: invisible (a different subdirectory), not errors. Format 2: profiles
#: carry per-run output digests (``ProfileData.outputs``). Format 3:
#: module keys cover the libc source and the standard headers.
CACHE_FORMAT = 3

#: In-memory LRU bound, per artifact kind.
MAX_ENTRIES = 256


def _digest(payload: Any) -> str:
    """A stable sha256 over any JSON-serializable payload."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def module_cache_key(source: str) -> str:
    """The content-addressed key of a compiled, pre-optimized module.

    Every program links libc and may include the standard headers, so
    their text is part of the key: an edit to either makes a new key.
    """
    return _digest(
        {
            "format": CACHE_FORMAT,
            "kind": "module",
            "source": source,
            "libc": runtime.LIBC_SOURCE,
            "headers": runtime.standard_headers(),
        }
    )


def module_content_key(module) -> str:
    """A stable hash over everything that affects a module's execution.

    Unlike :func:`repro.profiler.serialize.module_fingerprint` (which
    deliberately survives body edits), this covers every instruction
    field — including call-site ids — plus globals with their
    initializers, so two modules share a key only when they run (and
    profile) identically.
    """
    digest = hashlib.sha256()
    digest.update(f"entry={module.entry};".encode())
    digest.update(("ext=" + ",".join(sorted(module.externals)) + ";").encode())
    digest.update(
        ("addr=" + ",".join(sorted(module.address_taken)) + ";").encode()
    )
    for data in module.globals.values():
        digest.update(f"g {data.name} {data.size} {data.align}".encode())
        for item in data.init:
            digest.update(
                f" {item.offset}:{item.kind}:{item.value}:{item.size}"
                f":{item.symbol}".encode()
            )
            digest.update(item.data)
        digest.update(b"\n")
    for function in module.functions.values():
        digest.update(repr(function.content_key()).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def _spec_fingerprint(spec) -> dict:
    """A JSON-stable fingerprint of one profiling input."""
    return {
        "stdin": hashlib.sha256(spec.stdin).hexdigest(),
        "files": sorted(
            (path, hashlib.sha256(data).hexdigest())
            for path, data in spec.files.items()
        ),
        "argv": list(spec.argv),
    }


def profile_cache_key(module, specs) -> str:
    """The content-addressed key of a profile over an input set."""
    return _digest(
        {
            "format": CACHE_FORMAT,
            "kind": "profile",
            "module": module_content_key(module),
            "specs": [_spec_fingerprint(spec) for spec in specs],
        }
    )


class CompilationSession:
    """Content-addressed artifact cache for compiles and profiles.

    In-memory entries are LRU-bounded by :data:`MAX_ENTRIES` per
    artifact kind; with ``cache_dir`` set, entries are also pickled to
    disk and found again by later sessions (and later processes).
    """

    def __init__(
        self,
        cache_dir: str | None = None,
        obs: Observability | None = None,
    ):
        self._modules: OrderedDict[str, Any] = OrderedDict()
        self._profiles: OrderedDict[str, Any] = OrderedDict()
        self.cache_dir = cache_dir
        self._obs = resolve(obs)
        self._lock = threading.Lock()
        self._dir = (
            os.path.join(cache_dir, f"v{CACHE_FORMAT}") if cache_dir else None
        )

    # ------------------------------------------------------------------
    # spec: the picklable recipe for an equivalent session
    #
    # A live session is not picklable (locks, live caches), so parallel
    # worker processes receive a spec instead and open their own
    # session over the same shared disk store.

    def spec(self) -> dict:
        """A picklable description re-creating an equivalent session."""
        return {"cache_dir": self.cache_dir}

    @classmethod
    def from_spec(cls, spec: dict | None) -> "CompilationSession | None":
        """Open a session from :meth:`spec` output (``None`` passes through)."""
        return None if spec is None else cls(**spec)

    # ------------------------------------------------------------------
    # generic keyed store

    def _count(self, obs: Observability, what: str) -> None:
        obs.metrics.inc(f"pipeline.cache.{what}")

    def _lookup(self, table: OrderedDict, kind: str, key: str, obs) -> Any:
        with self._lock:
            if key in table:
                table.move_to_end(key)
                self._count(obs, "hits")
                return table[key]
        value = self._disk_load(kind, key)
        if value is not None:
            self._count(obs, "hits")
            self._count(obs, "disk_hits")
            self._remember(table, key, value, obs)
            return value
        self._count(obs, "misses")
        return None

    def _remember(self, table: OrderedDict, key: str, value: Any, obs) -> None:
        with self._lock:
            table[key] = value
            table.move_to_end(key)
            while len(table) > MAX_ENTRIES:
                table.popitem(last=False)
                self._count(obs, "evictions")

    def _store(self, table, kind: str, key: str, value: Any, obs) -> None:
        self._remember(table, key, value, obs)
        self._disk_store(kind, key, value)

    # ------------------------------------------------------------------
    # the on-disk store (sharded, process-safe, corruption-tolerant)

    def _disk_path(self, kind: str, key: str) -> str:
        """Sharded entry path: ``v<FORMAT>/<kind>/<first-2-hex>/<key>.pkl``."""
        return os.path.join(self._dir, kind, key[:2], f"{key}.pkl")

    @contextmanager
    def _store_lock(self):
        """Store-wide advisory write lock (no-op where flock is missing).

        Readers never take it — atomic rename means a read sees either
        the old entry, the new entry, or nothing, all of which are
        valid. Writers serialize on it across processes.
        """
        if fcntl is None or self.cache_dir is None:
            yield
            return
        os.makedirs(self.cache_dir, exist_ok=True)
        with open(os.path.join(self.cache_dir, ".lock"), "a+b") as handle:
            fcntl.flock(handle, fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(handle, fcntl.LOCK_UN)

    def _disk_load(self, kind: str, key: str) -> Any:
        if self._dir is None:
            return None
        try:
            with open(self._disk_path(kind, key), "rb") as handle:
                payload = pickle.load(handle)
        except Exception:
            return None
        if (
            isinstance(payload, dict)
            and payload.get("format") == CACHE_FORMAT
            and payload.get("kind") == kind
        ):
            return payload["value"]
        return None

    def _disk_store(self, kind: str, key: str, value: Any) -> None:
        if self._dir is None:
            return
        try:
            path = self._disk_path(kind, key)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            tmp = f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"
            with self._store_lock():
                with open(tmp, "wb") as handle:
                    pickle.dump(
                        {"format": CACHE_FORMAT, "kind": kind, "value": value},
                        handle,
                    )
                os.replace(tmp, path)
        except Exception:
            # A cache that cannot be written is a slow cache, not a bug.
            return

    # ------------------------------------------------------------------
    # artifacts

    def compiled_module(
        self,
        source: str,
        filename: str = "<input>",
        obs: Observability | None = None,
    ):
        """Compile and pre-optimize (the five-pass set) once.

        Returns a clone of the cached module, so the caller owns it.
        """
        obs = resolve(obs if obs is not None else self._obs)
        key = module_cache_key(source)
        cached = self._lookup(self._modules, "module", key, obs)
        if cached is None:
            from repro.compiler import compile_program
            from repro.opt import optimize_module

            cached = compile_program(source, filename, obs=obs)
            optimize_module(cached, obs=obs)
            self._store(self._modules, "module", key, cached, obs)
        return cached.clone()

    def profile(
        self,
        module,
        specs,
        obs: Observability | None = None,
        engine: str = "counting",
    ):
        """Cached :func:`~repro.profiler.profile.profile_module` call.

        ``engine`` is deliberately absent from the cache key: both VM
        execution tiers produce identical counters, so a profile cached
        under one engine is valid for the other.
        """
        obs = resolve(obs if obs is not None else self._obs)
        key = profile_cache_key(module, specs)
        cached = self._lookup(self._profiles, "profile", key, obs)
        if cached is None:
            from repro.profiler.profile import profile_module

            cached = profile_module(module, specs, obs=obs, engine=engine)
            self._store(self._profiles, "profile", key, cached, obs)
        # An isolated copy, so cached weights can never be mutated back.
        return copy.deepcopy(cached)

    # ------------------------------------------------------------------

    def clear(self, disk: bool = False) -> None:
        """Drop the in-memory tables (and the disk store with ``disk``)."""
        with self._lock:
            self._modules.clear()
            self._profiles.clear()
        if disk and self._dir is not None and os.path.isdir(self._dir):
            with self._store_lock():
                for root, dirs, files in os.walk(self._dir, topdown=False):
                    for name in files:
                        try:
                            os.unlink(os.path.join(root, name))
                        except OSError:
                            pass
                    for name in dirs:
                        try:
                            os.rmdir(os.path.join(root, name))
                        except OSError:
                            pass
