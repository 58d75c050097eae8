"""Content-addressed artifact cache for simulation outputs.

Training simulations are deterministic functions of their configuration,
so re-running a pipeline with an unchanged config re-derives byte-for-
byte the same trial results.  :class:`ArtifactCache` memoises that step
on disk: the key is a fingerprint of every *result-relevant* config
field (worker count and chunk size are deliberately excluded — they
cannot change results), and the value is the lossless npz artifact
written by :func:`repro.core.datastore.save_trial_artifact`.

A cache directory is safe to share between serial and parallel runs,
across processes, and across sessions; entries are immutable once
written (atomic rename) and keyed by content, never by timestamp.
"""

from __future__ import annotations

import hashlib
import json
import os
import zipfile
from collections.abc import Mapping
from pathlib import Path

from repro.core.datastore import load_trial_artifact, save_trial_artifact
from repro.core.distribution import ScoreDistribution
from repro.core.trials import TrialScoreResult
from repro.obs.metrics import MetricsRegistry

__all__ = ["ArtifactCache", "coerce_cache", "config_fingerprint"]


def config_fingerprint(fields: Mapping[str, object]) -> str:
    """Stable hex digest of a flat config mapping.

    Values are canonicalised through JSON (falling back to ``repr`` for
    non-JSON types such as parameter dataclasses), so logically equal
    configs hash equal regardless of dict ordering or tuple-vs-list
    spelling in the caller.
    """
    canonical = json.dumps(
        {str(k): fields[k] for k in fields},
        sort_keys=True,
        default=repr,
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:32]


def coerce_cache(
    cache: "str | Path | ArtifactCache | None",
) -> "ArtifactCache | None":
    """Accept a cache, a directory path for one, or ``None``.

    The single coercion used by every layer that takes a ``cache``
    argument (pipeline, evaluation matrix, the :mod:`repro.api` facade),
    so they all accept the same spellings.
    """
    if cache is None or isinstance(cache, ArtifactCache):
        return cache
    return ArtifactCache(cache)


class ArtifactCache:
    """config-hash -> (trial results, pooled distribution) store.

    Hit/miss/byte accounting lives in a per-instance
    :class:`~repro.obs.metrics.MetricsRegistry` (``cache.hits``,
    ``cache.misses``, ``cache.bytes_stored``, ``cache.bytes_loaded``);
    the historical ``hits`` / ``misses`` integer attributes remain as
    read-only properties, and
    :meth:`~repro.obs.metrics.MetricsRegistry.delta` snapshots replace
    the old before/after tuple bookkeeping at call sites.  Accounting is
    observation only: it never enters a key or a stored artifact.
    """

    def __init__(
        self, directory: str | Path, metrics: MetricsRegistry | None = None
    ) -> None:
        self.root = Path(directory)
        self.root.mkdir(parents=True, exist_ok=True)
        self.metrics = metrics if metrics is not None else MetricsRegistry()

    @property
    def hits(self) -> int:
        """Entries served from disk so far (both npz and JSON)."""
        return int(self.metrics.value("cache.hits"))

    @property
    def misses(self) -> int:
        """Lookups that found nothing usable so far."""
        return int(self.metrics.value("cache.misses"))

    def _record_loaded(self, path: Path) -> None:
        self.metrics.inc("cache.hits")
        try:
            self.metrics.inc("cache.bytes_loaded", path.stat().st_size)
        except OSError:  # pragma: no cover - raced deletion
            pass

    def _record_stored(self, path: Path) -> None:
        try:
            self.metrics.inc("cache.bytes_stored", path.stat().st_size)
        except OSError:  # pragma: no cover - raced deletion
            pass

    @staticmethod
    def _check_key(key: str) -> str:
        if not key or any(c in key for c in "/\\"):
            raise ValueError(f"invalid cache key {key!r}")
        return key

    def path_for(self, key: str) -> Path:
        """Where the entry for *key* lives (whether or not it exists)."""
        return self.root / f"trials-{self._check_key(key)}.npz"

    def load(
        self, key: str
    ) -> tuple[list[TrialScoreResult], ScoreDistribution] | None:
        """Return the cached entry for *key*, or ``None`` on a miss.

        A corrupt or format-incompatible entry counts as a miss (it is
        left in place for inspection; a subsequent :meth:`store`
        atomically replaces it).
        """
        path = self.path_for(key)
        if not path.exists():
            self.metrics.inc("cache.misses")
            return None
        try:
            entry = load_trial_artifact(path)
        except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile):
            self.metrics.inc("cache.misses")
            return None
        self._record_loaded(path)
        return entry

    def store(
        self,
        key: str,
        results: list[TrialScoreResult],
        distribution: ScoreDistribution,
    ) -> Path:
        """Persist an entry for *key*, returning its path."""
        path = save_trial_artifact(self.path_for(key), results, distribution)
        self._record_stored(path)
        return path

    def discard(self, key: str) -> None:
        """Remove the entry for *key*, if there is one."""
        self.path_for(key).unlink(missing_ok=True)

    # ------------------------------------------------------------------
    # generic JSON entries (evaluation cells and other small artifacts)
    # ------------------------------------------------------------------
    def json_path_for(self, key: str) -> Path:
        """Where the JSON entry for *key* lives (whether or not it exists)."""
        return self.root / f"eval-{self._check_key(key)}.json"

    def load_json(self, key: str) -> object | None:
        """Return the JSON entry for *key*, or ``None`` on a miss.

        The same hit/miss accounting and corruption tolerance as
        :meth:`load` apply: an unreadable entry is a miss and is replaced
        atomically by the next :meth:`store_json`.
        """
        path = self.json_path_for(key)
        if not path.exists():
            self.metrics.inc("cache.misses")
            return None
        try:
            obj = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            self.metrics.inc("cache.misses")
            return None
        self._record_loaded(path)
        return obj

    def store_json(self, key: str, obj: object) -> Path:
        """Persist a JSON-serialisable entry for *key* (atomic rename)."""
        path = self.json_path_for(key)
        tmp = path.with_name(path.name + f".tmp{os.getpid()}")
        try:
            tmp.write_text(
                json.dumps(obj, sort_keys=True, allow_nan=True), encoding="utf-8"
            )
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
        self._record_stored(path)
        return path
