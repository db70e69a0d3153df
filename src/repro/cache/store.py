"""The fingerprint-keyed result store and its crash-safe writers.

Entries live as a ``<key>.npz`` / ``<key>.json`` pair under one cache
directory, where ``key`` is the SHA-256 of the canonical fingerprint
(:func:`repro.cache.fingerprint.fingerprint_key`).  The ``.npz`` holds
the result arrays plus the full fingerprint text (so a digest collision
or a corrupted entry can never be served); the ``.json`` sidecar holds
the human-readable metadata the service layer lists jobs from.

Every write is atomic -- a uniquely-named temp file in the destination
directory followed by ``os.replace`` -- so a killed writer leaves either
the old entry or the new one, never a truncated file, and two concurrent
writers of the same key simply race to an identical result.  The
streaming Monte-Carlo checkpoints (:mod:`repro.mc.streaming`) persist
through the same writers.

The store is bounded: :class:`ResultCache` evicts least-recently-used
entries (``.npz`` mtime, refreshed on every hit) once the configured
byte or entry budget is exceeded, and counts hits, misses, stores and
evictions for the service's operational metrics.
"""

from __future__ import annotations

import io
import itertools
import json
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..errors import ReproError
from .fingerprint import fingerprint_key


def _telemetry():
    # Late import: repro.telemetry's event sink builds on this module's
    # atomic writers, so the dependency must stay one-way at import time.
    from .. import telemetry
    return telemetry

__all__ = ["CachedResult", "CacheStats", "ResultCache",
           "atomic_write_bytes", "atomic_write_npz", "atomic_write_text"]

#: Default byte budget of a :class:`ResultCache` (1 GiB).
DEFAULT_MAX_BYTES = 1 << 30

#: npz member names reserved by the store itself.
_FINGERPRINT_KEY = "__fingerprint__"

# Distinguishes temp files of concurrent writers within one process
# (the pid distinguishes processes).
_tmp_counter = itertools.count()


def _tmp_path(path: Path) -> Path:
    """A unique temp-file name in ``path``'s own directory.

    Same directory, so ``os.replace`` is an atomic rename (never a
    cross-device copy); unique per (pid, call), so concurrent writers --
    two service workers checkpointing, a killed job's successor -- can
    never clobber each other's half-written file.
    """
    return path.with_name(
        f".{path.name}.{os.getpid()}.{next(_tmp_counter)}.tmp")


def atomic_write_bytes(path, data: bytes) -> Path:
    """Write ``data`` to ``path`` atomically (temp file + ``os.replace``)."""
    path = Path(path)
    tmp = _tmp_path(path)
    try:
        with open(tmp, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def atomic_write_text(path, text: str) -> Path:
    """Write ``text`` (UTF-8) to ``path`` atomically."""
    return atomic_write_bytes(path, text.encode())


def atomic_write_npz(path, arrays: dict) -> Path:
    """Write a compressed ``.npz`` of ``arrays`` to ``path`` atomically.

    ``np.savez_compressed`` is handed an open file object, so it cannot
    append its own ``.npz`` suffix to the temp name and the final
    ``os.replace`` always targets the file actually written.
    """
    path = Path(path)
    tmp = _tmp_path(path)
    try:
        with open(tmp, "wb") as handle:
            np.savez_compressed(handle, **arrays)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


@dataclass
class CacheStats:
    """Operational counters of one :class:`ResultCache` instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0

    @property
    def requests(self) -> int:
        """Total lookups (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the store (0 when idle)."""
        return self.hits / self.requests if self.requests else 0.0

    def describe(self) -> str:
        return (f"cache: {self.hits} hit(s), {self.misses} miss(es) "
                f"({100.0 * self.hit_rate:.1f}% hit rate), "
                f"{self.stores} store(s), {self.evictions} eviction(s)")


@dataclass
class CachedResult:
    """One stored result: the fingerprint it answers, its payload."""

    fingerprint: str
    key: str
    meta: dict
    arrays: dict[str, np.ndarray] = field(default_factory=dict)


class ResultCache:
    """Content-addressed result store with an LRU size bound.

    Parameters
    ----------
    directory:
        The cache directory (created if needed).  Entries from earlier
        processes are served as long as their fingerprints match --
        the on-disk format *is* the cache; instances only add counters.
    max_bytes:
        Byte budget over all entries; least-recently-used entries are
        evicted after every store once it is exceeded.  ``None``
        disables the bound.
    max_entries:
        Optional entry-count bound, enforced the same way.

    Thread safety: one instance may be shared across threads (the
    :class:`repro.service.JobQueue` worker pool shares exactly one) --
    lookups, stores, eviction and the stats counters are serialised by
    an internal lock, so concurrent hits never lose counter increments
    and eviction never races a store's LRU refresh.  Cross-*process*
    safety comes from the atomic writers; only the in-memory counters
    are per-instance.
    """

    def __init__(self, directory, *, max_bytes: int | None = DEFAULT_MAX_BYTES,
                 max_entries: int | None = None) -> None:
        if max_bytes is not None and max_bytes < 1:
            raise ReproError("ResultCache.max_bytes must be >= 1 (or None)")
        if max_entries is not None and max_entries < 1:
            raise ReproError("ResultCache.max_entries must be >= 1 (or None)")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.max_bytes = max_bytes
        self.max_entries = max_entries
        self.stats = CacheStats()
        self._lock = threading.RLock()

    # -- lookup -----------------------------------------------------------
    def get(self, fingerprint: str) -> CachedResult | None:
        """The stored result of ``fingerprint``, or ``None`` (a miss).

        A hit refreshes the entry's LRU position.  Unreadable or
        mismatched entries (truncated by an ancient non-atomic writer,
        or a digest collision) are dropped and reported as misses --
        the cache must never serve a result it cannot vouch for.
        """
        key = fingerprint_key(fingerprint)
        npz_path = self._npz(key)
        with self._lock:
            try:
                # One read, then parse in memory: every file syscall is
                # a point where a hit must win the GIL back from busy
                # worker threads.
                with np.load(io.BytesIO(npz_path.read_bytes())) as data:
                    stored = bytes(data[_FINGERPRINT_KEY]).decode("utf-8")
                    if stored != fingerprint:
                        raise ReproError("fingerprint mismatch")
                    arrays = {name: data[name].copy() for name in data.files
                              if name != _FINGERPRINT_KEY}
            except FileNotFoundError:
                self.stats.misses += 1
                _telemetry().counter_add("cache.misses")
                return None
            except Exception:
                self._remove(key)
                self.stats.misses += 1
                _telemetry().counter_add("cache.misses")
                return None
            meta = {}
            json_path = self._json(key)
            try:
                meta = json.loads(json_path.read_text()).get("meta", {})
            except (OSError, ValueError):
                pass  # arrays are intact; metadata is advisory
            now = None  # default: current time
            os.utime(npz_path, now)
            self.stats.hits += 1
            _telemetry().counter_add("cache.hits")
        return CachedResult(fingerprint=fingerprint, key=key, meta=meta,
                            arrays=arrays)

    def __contains__(self, fingerprint: str) -> bool:
        return self._npz(fingerprint_key(fingerprint)).exists()

    # -- store ------------------------------------------------------------
    def put(self, fingerprint: str, arrays: dict | None = None,
            meta: dict | None = None) -> CachedResult:
        """Store a result under its fingerprint (atomically), then evict.

        ``arrays`` maps names to numpy arrays; names starting with
        ``__`` are reserved.  ``meta`` must be JSON-serialisable.
        """
        arrays = dict(arrays or {})
        for name in arrays:
            if name.startswith("__"):
                raise ReproError(
                    f"cache array name {name!r} is reserved "
                    "(names must not start with '__')")
        meta = dict(meta or {})
        key = fingerprint_key(fingerprint)
        payload = {name: np.asarray(data) for name, data in arrays.items()}
        payload[_FINGERPRINT_KEY] = np.frombuffer(
            fingerprint.encode(), dtype=np.uint8)
        with self._lock:
            atomic_write_npz(self._npz(key), payload)
            atomic_write_text(self._json(key), json.dumps(
                {"fingerprint": fingerprint, "meta": meta}, indent=2,
                sort_keys=True))
            self.stats.stores += 1
            _telemetry().counter_add("cache.stores")
            self._evict(protect=key)
        return CachedResult(fingerprint=fingerprint, key=key, meta=meta,
                            arrays=arrays)

    # -- maintenance ------------------------------------------------------
    def keys(self) -> list[str]:
        """Stored entry keys, least-recently-used first."""
        entries = self._entries()
        return [key for key, _, _ in entries]

    def __len__(self) -> int:
        return len(self._entries())

    def total_bytes(self) -> int:
        """Bytes currently occupied by all entries."""
        return sum(size for _, _, size in self._entries())

    def clear(self) -> int:
        """Remove every entry; returns the number removed."""
        with self._lock:
            entries = self._entries()
            for key, _, _ in entries:
                self._remove(key)
        return len(entries)

    # -- internals --------------------------------------------------------
    def _npz(self, key: str) -> Path:
        return self.directory / f"{key}.npz"

    def _json(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def _remove(self, key: str) -> None:
        self._npz(key).unlink(missing_ok=True)
        self._json(key).unlink(missing_ok=True)

    def _entries(self) -> list[tuple[str, float, int]]:
        """``(key, mtime, bytes)`` per entry, oldest-access first."""
        entries = []
        for npz_path in self.directory.glob("*.npz"):
            try:
                stat = npz_path.stat()
                size = stat.st_size
                json_path = self._json(npz_path.stem)
                if json_path.exists():
                    size += json_path.stat().st_size
                entries.append((npz_path.stem, stat.st_mtime, size))
            except OSError:
                continue  # entry vanished under us (concurrent eviction)
        entries.sort(key=lambda entry: entry[1])
        return entries

    def _evict(self, protect: str | None = None) -> None:
        """Drop LRU entries until both budgets hold (sparing ``protect``).

        Callers hold :attr:`_lock` (the public entry point is
        :meth:`put`); taking it re-entrantly here keeps direct calls in
        tests safe too.
        """
        if self.max_bytes is None and self.max_entries is None:
            return
        with self._lock:
            entries = self._entries()
            total = sum(size for _, _, size in entries)
            count = len(entries)
            for key, _, size in entries:
                over_bytes = (self.max_bytes is not None
                              and total > self.max_bytes)
                over_count = (self.max_entries is not None
                              and count > self.max_entries)
                if not (over_bytes or over_count):
                    break
                if key == protect:
                    continue  # never evict the entry just stored
                self._remove(key)
                self.stats.evictions += 1
                _telemetry().counter_add("cache.evictions")
                total -= size
                count -= 1
