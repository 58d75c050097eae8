"""Content-addressed artifact cache for simulation outputs.

Training simulations are deterministic functions of their configuration,
so re-running a pipeline with an unchanged config re-derives byte-for-
byte the same trial results.  :class:`ArtifactCache` memoises that step
on disk: the key is a fingerprint of every *result-relevant* config
field (the worker count is deliberately excluded — it cannot change
results), and the value is the lossless npz artifact
written by :func:`save_trial_artifact`.

Small results are JSON *documents* (:meth:`ArtifactCache.load_json` /
:meth:`ArtifactCache.store_json`).  A document is either one entry or a
mapping of *members*: the evaluation matrix keeps every cell of one
trace window as a member of that window's document, keyed by the
cell's own fingerprint, so a window costs one file instead of one file
per (policy, backfill) cell.  Loads count hits and misses per member,
so the accounting reads the same as with one file per member.

A cache directory is safe to share between serial and parallel runs,
across processes, and across sessions; files are keyed by content,
never by timestamp, and every write is an atomic rename, so a reader
never sees a torn file.  Two runs merging members into the same
document at once both rename a complete file, and the last rename
wins: a member lost that way is a later miss that costs one
re-simulation, never a wrong result.  A writer killed between its
temp-file write and the rename leaves the pid-suffixed temp file
behind; the next :class:`ArtifactCache` opened on the directory removes
it once that pid is no longer running.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import zipfile
from collections.abc import Iterable, Mapping
from pathlib import Path
from typing import BinaryIO

import numpy as np

from repro.core.distribution import ScoreDistribution
from repro.core.trials import TrialScoreResult
from repro.obs.metrics import MetricsRegistry

__all__ = [
    "ArtifactCache",
    "coerce_cache",
    "config_fingerprint",
    "load_trial_artifact",
    "save_trial_artifact",
]

#: The writer pid in a temp-file name: ``trials-<key>.npz.tmp<pid>.npz``
#: (:func:`save_trial_artifact`) or
#: ``eval-<key>.json.tmp<pid>`` (:meth:`ArtifactCache.store_json`).
_TMP_PID = re.compile(r"\.tmp(\d+)(?:\.npz)?$")


#: Bump when the npz artifact layout changes; loaders reject other versions
#: (v1 also held two per-trial arrays per tuple).
ARTIFACT_FORMAT_VERSION = 2

_RESULT_FIELDS = ("runtime", "size", "submit", "scores", "n_trials")
_DIST_FIELDS = ("runtime", "size", "submit", "score")


def save_trial_artifact(
    path: str | Path,
    results: list[TrialScoreResult],
    distribution: ScoreDistribution,
) -> Path:
    """Write trial results + pooled distribution as one lossless ``.npz``.

    The npz round-trips every array bit for bit.  The write is atomic
    (tmp file + rename) so a crashed run never leaves a torn artifact
    behind for the next run to load.
    """
    path = Path(path)
    arrays: dict[str, np.ndarray] = {
        "format_version": np.array([ARTIFACT_FORMAT_VERSION], dtype=np.int64),
        "n_results": np.array([len(results)], dtype=np.int64),
    }
    for field in _DIST_FIELDS:
        arrays[f"dist_{field}"] = getattr(distribution, field)
    for i, result in enumerate(results):
        for field in _RESULT_FIELDS:
            arrays[f"trial{i}_{field}"] = np.asarray(getattr(result, field))
    tmp = path.with_name(path.name + f".tmp{os.getpid()}.npz")
    try:
        with open(tmp, "wb") as fh:
            np.savez_compressed(fh, **arrays)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path


def _read_result(data: Mapping[str, np.ndarray], i: int) -> TrialScoreResult:
    fields = {field: data[f"trial{i}_{field}"] for field in _RESULT_FIELDS}
    fields["n_trials"] = int(fields["n_trials"])
    return TrialScoreResult(**fields)


def load_trial_artifact(
    source: str | Path | BinaryIO,
) -> tuple[list[TrialScoreResult], ScoreDistribution]:
    """Read back a :func:`save_trial_artifact` file (a path or an open one)."""
    with np.load(source) as data:
        version = int(data["format_version"][0])
        if version != ARTIFACT_FORMAT_VERSION:
            name = source if isinstance(source, (str, Path)) else source.name
            raise ValueError(
                f"{name}: artifact format v{version}, "
                f"expected v{ARTIFACT_FORMAT_VERSION}"
            )
        results = [_read_result(data, i) for i in range(int(data["n_results"][0]))]
        distribution = ScoreDistribution(
            **{field: data[f"dist_{field}"] for field in _DIST_FIELDS}
        )
    return results, distribution


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
        self._remove_orphaned_tmp()

    def _remove_orphaned_tmp(self) -> None:
        """Delete temp files whose writer is gone (killed mid-store).

        Writers remove their temp file in a ``finally``, which a SIGKILL
        skips.  A temp file is never a live entry (entries appear by
        atomic rename), so one whose pid no longer runs is safe to
        delete; one whose pid is alive is a concurrent writer's and
        stays.  Pids are those of this host.
        """
        if os.name != "posix":  # os.kill(pid, 0) terminates on Windows
            return
        for tmp in sorted(self.root.glob("*.tmp*")):
            match = _TMP_PID.search(tmp.name)
            if match is None:
                continue
            try:
                os.kill(int(match.group(1)), 0)
            except ProcessLookupError:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass  # the pid exists under another user: a live writer

    @property
    def hits(self) -> int:
        """Entries (npz, JSON documents or members) served from disk so far."""
        return int(self.metrics.value("cache.hits"))

    @property
    def misses(self) -> int:
        """Lookups that found nothing usable so far."""
        return int(self.metrics.value("cache.misses"))

    def _record_loaded(self, n_bytes: int, n_hits: int = 1) -> None:
        self.metrics.inc("cache.hits", n_hits)
        self.metrics.inc("cache.bytes_loaded", n_bytes)

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

        A missing, corrupt or format-incompatible entry counts as a miss
        (an unreadable one is left in place for inspection; a subsequent
        :meth:`store` atomically replaces it).  The file is opened once,
        and its size is the bytes loaded.
        """
        path = self.path_for(key)
        try:
            with open(path, "rb") as fh:
                n_bytes = os.fstat(fh.fileno()).st_size
                entry = load_trial_artifact(fh)
        except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile):
            self.metrics.inc("cache.misses")
            return None
        self._record_loaded(n_bytes)
        return entry

    def store(
        self,
        key: str,
        results: list[TrialScoreResult],
        distribution: ScoreDistribution,
    ) -> Path:
        """Persist an entry for *key*, returning its path."""
        path = save_trial_artifact(self.path_for(key), results, distribution)
        self.metrics.inc("cache.bytes_stored", path.stat().st_size)
        return path

    def discard(self, key: str) -> None:
        """Remove the entry for *key*, if there is one."""
        self.path_for(key).unlink(missing_ok=True)

    # ------------------------------------------------------------------
    # JSON documents (evaluation windows, single simulations)
    # ------------------------------------------------------------------
    def json_path_for(self, key: str) -> Path:
        """Where the JSON document for *key* lives (whether or not it exists)."""
        return self.root / f"eval-{self._check_key(key)}.json"

    def _read_json(self, key: str) -> tuple[object, int] | None:
        """The parsed document for *key* and its length, or ``None``."""
        try:
            data = self.json_path_for(key).read_bytes()
            return json.loads(data.decode("utf-8")), len(data)
        except (OSError, ValueError):
            return None

    def load_json(
        self, key: str, members: Iterable[str] | None = None
    ) -> object | None:
        """Return the JSON document for *key*, or some of its members.

        Without *members* the whole document is one entry: ``None`` on a
        miss, and one hit or miss is counted.  With *members* the
        document is a mapping and the result is the dict of the named
        members it holds; each named member counts as one hit or one
        miss, so a missing or unreadable document is one miss per
        member.  Either way an unreadable document is replaced
        atomically by the next :meth:`store_json`, the file is read
        once, and its length is the bytes loaded.
        """
        read = self._read_json(key)
        if members is None:
            if read is None:
                self.metrics.inc("cache.misses")
                return None
            obj, n_bytes = read
            self._record_loaded(n_bytes)
            return obj
        wanted = list(members)
        doc = read[0] if read is not None else None
        found = (
            {m: doc[m] for m in wanted if m in doc} if isinstance(doc, dict) else {}
        )
        if found:
            self._record_loaded(read[1], len(found))
        if len(found) < len(wanted):
            self.metrics.inc("cache.misses", len(wanted) - len(found))
        return found

    def store_json(self, key: str, obj: object, *, merge: bool = False) -> Path:
        """Persist a JSON-serialisable document for *key* (atomic rename).

        With *merge*, *obj* is a mapping of members added to those the
        document on disk already holds (a member in *obj* replaces the
        stored one; an unreadable document is dropped).  The read and
        the rename are not one step: of two concurrent merges into one
        document the last rename wins, and the members only the other
        wrote are lost — later misses, never wrong results.  The
        document is encoded once; its length is the bytes stored.
        """
        if merge:
            read = self._read_json(key)
            if read is not None and isinstance(read[0], dict):
                obj = {**read[0], **obj}
        path = self.json_path_for(key)
        data = json.dumps(obj, sort_keys=True, allow_nan=True).encode("utf-8")
        tmp = path.with_name(path.name + f".tmp{os.getpid()}")
        try:
            tmp.write_bytes(data)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        self.metrics.inc("cache.bytes_stored", len(data))
        return path
