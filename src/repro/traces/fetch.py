"""Content-verified acquisition of registered traces (``repro fetch``).

Downloads a :class:`~repro.traces.registry.TraceSource` into the local
trace cache (``$REPRO_TRACE_DIR``, default ``~/.cache/repro/traces``)
with three properties the rest of the library leans on:

* **atomic** — the download streams into a same-directory temp file and
  is ``os.replace``-d into place only after the checksum verifies, so an
  interrupted or corrupt download can never masquerade as a cached
  trace (stale temp files from killed processes are swept on the next
  fetch);
* **content-verified** — the stream is hashed *while* it is written and
  compared against the registry's pinned SHA-256 of the decompressed
  SWF bytes; gzip transport (``.swf.gz``, the PWA's native form) is
  sniffed by magic bytes and decompressed on the fly, so the cache
  always holds plain SWF under one digest;
* **idempotent** — a re-fetch re-hashes the cached file and downloads
  nothing when it still matches; a tampered or truncated cache entry is
  detected the same way and replaced.

:func:`resolve_trace_ref` is the single resolution point for the
``pwa:<name>`` reference scheme: it verifies the cached content hash
(so a corrupt cache can never serve results under a clean fingerprint)
and, when the trace is simply not there, raises
:class:`TraceUnavailableError` naming the exact ``repro-sched fetch``
command that makes it available — the library never downloads behind
the caller's back.
"""

from __future__ import annotations

import gzip
import hashlib
import os
from dataclasses import dataclass
from pathlib import Path

from repro.traces.registry import (
    TRACE_REF_PREFIX,
    TraceSource,
    get_source,
    is_trace_ref,
    trace_ref_name,
)

__all__ = [
    "ChecksumMismatchError",
    "FetchResult",
    "TraceFetchError",
    "TraceUnavailableError",
    "cached_trace_path",
    "fetch_trace",
    "resolve_trace_ref",
    "trace_cache_dir",
    "verify_cached",
]

#: Environment variable overriding the trace cache directory.
CACHE_DIR_ENV = "REPRO_TRACE_DIR"

_DEFAULT_CACHE_DIR = "~/.cache/repro/traces"
_GZIP_MAGIC = b"\x1f\x8b"
_CHUNK = 1 << 20  # 1 MiB read granularity: archive traces are ~100s of MB
#: Socket timeout of a download: bounds every connect/read, not the whole
#: transfer, so multi-hundred-MB traces still stream fine while a stalled
#: server fails with an error instead of hanging the fetch forever.
_SOCKET_TIMEOUT_S = 60.0


class TraceFetchError(ValueError):
    """A fetch failed (network, I/O, or verification)."""


class ChecksumMismatchError(TraceFetchError):
    """Downloaded content does not match the registry's pinned SHA-256."""


class TraceUnavailableError(ValueError):
    """A ``pwa:`` reference points at a trace missing from the local cache.

    The message names the ``repro-sched fetch`` invocation that resolves
    it; callers wanting the synthetic stand-in instead pass
    ``--synthetic-fallback`` (CLI) or build a synthetic spec directly.
    """


def trace_cache_dir(directory: str | Path | None = None) -> Path:
    """The local trace cache: *directory*, ``$REPRO_TRACE_DIR``, or default."""
    if directory is not None:
        return Path(directory).expanduser()
    return Path(os.environ.get(CACHE_DIR_ENV) or _DEFAULT_CACHE_DIR).expanduser()


def cached_trace_path(
    name: str, *, directory: str | Path | None = None
) -> Path:
    """Where trace *name*'s decompressed SWF lives (whether or not cached)."""
    return trace_cache_dir(directory) / get_source(name).filename


def _sha256_of(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        while chunk := fh.read(_CHUNK):
            digest.update(chunk)
    return digest.hexdigest()


def verify_cached(
    name: str, *, directory: str | Path | None = None
) -> Path | None:
    """The verified cache path for *name*, or ``None`` if absent/corrupt.

    Re-hashes the cached file against the registry's pinned digest, so a
    truncated or tampered file is treated as absent rather than served.
    """
    source = get_source(name)
    path = trace_cache_dir(directory) / source.filename
    if not path.is_file():
        return None
    return path if _sha256_of(path) == source.sha256 else None


@dataclass(frozen=True)
class FetchResult:
    """Outcome of one :func:`fetch_trace` call."""

    source: TraceSource
    path: Path
    sha256: str
    n_bytes: int
    was_cached: bool

    def line(self) -> str:
        """The one-line summary the CLI prints."""
        verb = "already cached" if self.was_cached else "fetched"
        return (
            f"{self.source.key}: {verb} at {self.path}"
            f" ({self.n_bytes} bytes, sha256 verified)"
        )


def _sweep_stale_tmp(dest: Path) -> None:
    # Temp files are pid-suffixed; ones whose process is gone belong to
    # interrupted fetches and are safe to remove (the atomic rename means
    # a temp file is never the live entry).  A temp file whose pid is
    # still alive is a concurrent fetch in progress and is left alone —
    # and should that race ever be lost anyway, fetch_trace falls back to
    # the winner's verified entry instead of failing.
    for stale in sorted(dest.parent.glob(dest.name + ".tmp*")):
        pid_text = stale.name.rpartition(".tmp")[2]
        if pid_text.isdigit() and pid_text != str(os.getpid()):
            try:
                os.kill(int(pid_text), 0)
            except ProcessLookupError:
                pass  # owner is gone: stale, remove below
            except (PermissionError, OSError):
                continue  # pid exists (another user's process): leave it
            else:
                continue  # owner still running: leave it
        stale.unlink(missing_ok=True)


def fetch_trace(
    name: str,
    *,
    directory: str | Path | None = None,
    force: bool = False,
) -> FetchResult:
    """Download trace *name* into the cache, verified and decompressed.

    Idempotent: when the cached file already matches the pinned digest
    (and *force* is false) nothing is downloaded.  Atomic: the live cache
    entry either holds verified content or does not exist — interrupted
    downloads leave only a temp file that the next fetch sweeps.  Raises
    :class:`ChecksumMismatchError` (nothing cached) when the download
    does not hash to the registry's pinned SHA-256.
    """
    source = get_source(name)
    cache = trace_cache_dir(directory)
    cache.mkdir(parents=True, exist_ok=True)
    dest = cache / source.filename
    _sweep_stale_tmp(dest)
    if not force:
        verified = verify_cached(name, directory=directory)
        if verified is not None:
            return FetchResult(
                source=source,
                path=verified,
                sha256=source.sha256,
                n_bytes=verified.stat().st_size,
                was_cached=True,
            )

    # Imported here, not at module scope: urllib.request pulls in
    # http.client and ssl, which every `import repro` would then pay for.
    import urllib.error
    import urllib.request

    tmp = dest.with_name(dest.name + f".tmp{os.getpid()}")
    digest = hashlib.sha256()
    n_bytes = 0
    try:
        try:
            response = urllib.request.urlopen(
                source.url, timeout=_SOCKET_TIMEOUT_S
            )
        except (urllib.error.URLError, OSError) as exc:
            raise TraceFetchError(
                f"cannot download trace {name!r} from {source.url}: {exc}"
            ) from None
        with response, tmp.open("wb") as out:
            head = response.read(2)
            if head == _GZIP_MAGIC:
                # PWA distributes .swf.gz; decompress in-flight so the
                # cache holds plain SWF under the one pinned digest.
                stream = gzip.GzipFile(fileobj=_Prepended(head, response))
            else:
                stream = _Prepended(head, response)
            try:
                while chunk := stream.read(_CHUNK):
                    digest.update(chunk)
                    out.write(chunk)
                    n_bytes += len(chunk)
            except (OSError, EOFError) as exc:
                raise TraceFetchError(
                    f"download of trace {name!r} from {source.url}"
                    f" failed mid-stream: {exc}"
                ) from None
        actual = digest.hexdigest()
        if actual != source.sha256:
            raise ChecksumMismatchError(
                f"trace {name!r} from {source.url} failed verification:"
                f" expected sha256 {source.sha256}, got {actual}"
                " — the registry pin and the archive file disagree;"
                " nothing was cached"
            )
        try:
            os.replace(tmp, dest)
        except FileNotFoundError:
            # A concurrent fetch of the same trace swept our temp file.
            # Both downloads verified against the same pin, so if the
            # winner's entry is in place the outcome is identical.
            if verify_cached(name, directory=directory) is None:
                raise TraceFetchError(
                    f"trace {name!r}: a concurrent fetch removed the"
                    " in-progress download and left no verified entry;"
                    " re-run the fetch"
                ) from None
    finally:
        tmp.unlink(missing_ok=True)
    return FetchResult(
        source=source,
        path=dest,
        sha256=source.sha256,
        n_bytes=n_bytes,
        was_cached=False,
    )


class _Prepended:
    """A read-only stream with a few already-read bytes stitched back on."""

    def __init__(self, head: bytes, rest) -> None:
        self._buf = head
        self._rest = rest

    def read(self, size: int = -1) -> bytes:
        if size is None or size < 0:
            data = self._buf + self._rest.read()
            self._buf = b""
            return data
        data, self._buf = self._buf[:size], self._buf[size:]
        if len(data) < size:
            data += self._rest.read(size - len(data))
        return data


def resolve_trace_ref(
    ref: str, *, directory: str | Path | None = None
) -> str:
    """Resolve a trace argument: paths pass through, ``pwa:`` refs hit the cache.

    For a ``pwa:<name>`` reference the cached file is re-verified against
    the registry's content hash before its path is returned, so the
    resolution a simulation reads is exactly the content its fingerprint
    names.  A missing (or corrupt) cache entry raises
    :class:`TraceUnavailableError` telling the caller to run
    ``repro-sched fetch <name>`` — resolution itself never downloads.
    """
    if not is_trace_ref(ref):
        return ref
    name = trace_ref_name(ref)
    source = get_source(name)  # raises UnknownTraceError for bad names
    path = verify_cached(name, directory=directory)
    if path is None:
        raise TraceUnavailableError(
            f"trace {TRACE_REF_PREFIX}{name} ({source.display_name}) is not in"
            f" the local cache ({trace_cache_dir(directory)});"
            f" run `repro-sched fetch {name}` to download and verify it"
            " (the evaluate verb additionally accepts --synthetic-fallback"
            " to use the synthetic stand-in instead)"
        )
    return str(path)
