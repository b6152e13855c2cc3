"""On-disk result cache for the results of every cacheable run kind.

Results are stored one JSON file per key under ``<root>/<key[:2]>/``,
tagged with the kind that declared their type
(:func:`~repro.runtime.kinds.register_executor`): a result is encoded
with ``dataclasses.asdict`` and rebuilt through its type's
``from_payload`` when it has one, else its constructor.  Python's
``repr``-based float serialisation round-trips exactly, so a result
loaded from cache is bit-identical to the one that was stored.

Lookups never raise on a bad entry, but the *reason* a lookup failed is
not flattened into one bucket: :class:`CacheStats` (and the
``runtime.cache`` telemetry scope) distinguish a true miss (no file), a
corrupt entry (truncated/garbled JSON or a payload that no longer
rebuilds), and a schema-stale entry (written by an older cache layout).

Stores are crash-safe: the payload is written to a ``.tmp-*`` file,
fsync'd, and only then renamed over the target — a crash at any point
leaves either the complete old state or the complete new entry, never
a zero-byte or truncated file posing as a result.  A corrupt entry
found by :meth:`ResultCache.get` is *quarantined* (renamed to
``*.corrupt`` for post-mortems) rather than left in place, so the next
lookup is an honest miss instead of re-parsing the same garbage.  A
run killed mid-store can leave a temp file behind, which is never
counted as an entry and is swept up (with quarantined files) by
:meth:`ResultCache.clear`.
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Iterator, Optional, Union

from ..telemetry.registry import registry as _metrics_registry
from .hashing import CACHE_SCHEMA_VERSION
from .kinds import result_kind, result_type


@dataclasses.dataclass
class CacheStats:
    """Lookup/store counters for one :class:`ResultCache`."""

    hits: int = 0
    #: Lookups that found no entry at all.
    misses: int = 0
    #: Lookups that found an unreadable or unrebuildable entry.
    corrupt: int = 0
    #: Lookups that found an entry written under another schema version.
    schema_stale: int = 0
    #: Corrupt entries renamed to ``*.corrupt`` instead of re-missed.
    quarantined: int = 0
    stores: int = 0

    @property
    def total_misses(self) -> int:
        """Every lookup that did not produce a result, whatever the cause."""
        return self.misses + self.corrupt + self.schema_stale


class _SchemaMismatch(ValueError):
    """Internal: the entry was written under a different schema version
    (or for a result kind this process does not declare — stale either
    way, never quarantined as corrupt)."""


def _encode(result: Any) -> dict:
    """Serialise a result to a kind-tagged JSON payload."""
    kind = result_kind(result)
    if kind is None:
        raise TypeError(
            f"cannot cache a {type(result).__name__}; no run kind declares it "
            f"as its result"
        )
    return {
        "schema": CACHE_SCHEMA_VERSION,
        "kind": kind,
        "result": dataclasses.asdict(result),
    }


def _decode(payload: dict) -> Any:
    """Rebuild a result from :func:`_encode` output."""
    if payload.get("schema") != CACHE_SCHEMA_VERSION:
        raise _SchemaMismatch("cache schema mismatch")
    cls = result_type(payload["kind"])
    if cls is None:
        # A valid entry written by a process that declared more kinds;
        # stale for us, not corrupt — do not quarantine it.
        raise _SchemaMismatch(f"no result type for run kind {payload['kind']!r}")
    if hasattr(cls, "from_payload"):
        return cls.from_payload(payload["result"])
    return cls(**payload["result"])


class ResultCache:
    """A content-addressed store of experiment results on disk."""

    def __init__(self, root: Union[str, Path]):
        # The directory is created lazily on first store, so pointing a
        # runner at a cache it never uses leaves no trace on disk.
        self.root = Path(root)
        self.stats = CacheStats()
        scope = _metrics_registry().scope("runtime.cache")
        self._counters = {f.name: scope.counter(f.name) for f in dataclasses.fields(CacheStats)}

    def _count(self, name: str) -> None:
        """Bump one :class:`CacheStats` count and its telemetry twin."""
        setattr(self.stats, name, getattr(self.stats, name) + 1)
        self._counters[name].inc()

    def path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[Any]:
        """The cached result for ``key``, or None.

        Any failed lookup returns None; the stats/telemetry record
        whether it was a miss, a corrupt entry, or a schema-stale one.
        """
        try:
            with self.path(key).open() as handle:
                payload = json.load(handle)
        except OSError:
            self._count("misses")
            return None
        except ValueError:
            return self._quarantine(key)
        try:
            result = _decode(payload)
        except _SchemaMismatch:
            self._count("schema_stale")
            return None
        except (AttributeError, KeyError, TypeError, ValueError):
            return self._quarantine(key)
        self._count("hits")
        return result

    def _quarantine(self, key: str) -> None:
        """Move a corrupt entry aside (``<key>.json.corrupt``).

        The garbage stays on disk for post-mortems but no longer
        shadows the key: the next lookup is a plain miss and the run
        re-executes.  Returns None (the lookup result).
        """
        self._count("corrupt")
        path = self.path(key)
        try:
            os.replace(path, path.with_name(path.name + ".corrupt"))
        except OSError:  # pragma: no cover - raced with another process
            return None
        self._count("quarantined")
        return None

    def put(self, key: str, result: Any) -> None:
        """Store ``result`` under ``key`` (crash-safe: write, fsync,
        rename).  Without the fsync a crash after the rename could
        still leave a zero-byte or truncated entry — the data may sit
        in page cache while the rename is already durable."""
        target = self.path(key)
        target.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=target.parent, prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(_encode(result), handle)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_name, target)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self._count("stores")

    # ------------------------------------------------------------------
    def _files(self) -> Iterator[Path]:
        """All entry, temp, and quarantine files under the shard dirs.

        ``pathlib``'s glob matches dotfiles (unlike the ``glob``
        module), so ``.tmp-*.json`` stragglers from killed runs show up
        here; ``*.json.corrupt`` quarantines do too.  Callers must
        check :func:`_is_entry`.
        """
        yield from self.root.glob("*/*.json")
        yield from self.root.glob("*/*.json.corrupt")

    @staticmethod
    def _is_entry(path: Path) -> bool:
        return not path.name.startswith(".") and path.name.endswith(".json")

    def __len__(self) -> int:
        """Number of stored entries (in-flight temp files excluded)."""
        return sum(1 for path in self._files() if self._is_entry(path))

    def clear(self) -> int:
        """Delete every cached entry; returns the number removed.

        Temp-file stragglers (``.tmp-*.json`` left by a run killed
        mid-store) and ``*.json.corrupt`` quarantines are swept up
        too, but not counted as entries.
        """
        removed = 0
        for path in self._files():
            path.unlink()
            if self._is_entry(path):
                removed += 1
        return removed
