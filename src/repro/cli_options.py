"""Shared argparse option types and flag groups for the CLI.

Every ``repro-sched`` subcommand used to re-declare its own CSV
splitter, worker-count parser and cache-directory validator; this module
is now the single home of those helpers, so all verbs accept identical
spellings (and error messages) for the same concepts:

* value types — :func:`split_csv`, :func:`workers_type`,
  :func:`cache_dir_type`, :func:`bootstrap_type`, :func:`ci_level_type`,
  :func:`trace_source_type` (a path or a ``pwa:<name>`` registry
  reference, validated against :mod:`repro.traces` at parse time);
* flag groups — :func:`add_workers_arg`, :func:`add_backend_arg`,
  :func:`add_cache_arg`, :func:`add_scale_arg` attach the ``--workers``
  / ``--backend`` / ``--cache`` / ``--scale`` flags with one shared
  help text.  Their default is ``None``: an absent flag falls through
  to the environment in :mod:`repro.runtime.config`, the same resolvers
  :func:`repro.api.run` uses.
"""

from __future__ import annotations

import argparse
import os

from repro.experiments.scale import SCALES
from repro.runtime import BACKEND_NAMES, resolve_workers

__all__ = [
    "add_backend_arg",
    "add_cache_arg",
    "add_platform_args",
    "add_scale_arg",
    "add_telemetry_arg",
    "add_workers_arg",
    "bootstrap_type",
    "cache_dir_type",
    "ci_level_type",
    "split_csv",
    "telemetry_dir_from",
    "topology_type",
    "trace_source_type",
    "workers_type",
]


# ----------------------------------------------------------------------
# argparse value types
# ----------------------------------------------------------------------
def split_csv(value: str) -> list[str]:
    """Comma-separated list -> stripped, non-empty items."""
    items = [part.strip() for part in value.split(",") if part.strip()]
    if not items:
        raise argparse.ArgumentTypeError(f"empty list {value!r}")
    return items


def workers_type(value: str) -> int:
    """An integer worker count or ``auto``."""
    try:
        return resolve_workers(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def cache_dir_type(value: str) -> str:
    """A path that is usable as a cache directory."""
    if os.path.exists(value) and not os.path.isdir(value):
        raise argparse.ArgumentTypeError(f"{value!r} exists and is not a directory")
    return value


def trace_source_type(value: str) -> str:
    """An SWF path or a ``pwa:<name>`` trace-registry reference.

    Plain paths pass through untouched (existence is checked when the
    file is opened); registry references are validated at parse time so
    a typo'd name fails with the list of registered traces instead of a
    download error later.
    """
    from repro.traces import UnknownTraceError, get_source, is_trace_ref, trace_ref_name

    if is_trace_ref(value):
        try:
            get_source(trace_ref_name(value))
        except (UnknownTraceError, ValueError) as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return value


def topology_type(value: str) -> tuple[int, ...]:
    """A platform topology spelling: ``2x4`` -> ``(2, 4)``.

    Each ``x``-separated level is a fanout; the leaf count is their
    product (``2x4`` = 8 leaves).  ``1`` is accepted and provably
    byte-identical to the flat machine.
    """
    from repro.sim.platform import normalize_topology

    try:
        topo = normalize_topology(
            tuple(int(part) for part in value.lower().split("x"))
        )
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"bad topology {value!r}; expected positive integers joined"
            f" by 'x' (e.g. 2x4): {exc}"
        ) from None
    if topo is None:
        raise argparse.ArgumentTypeError(f"empty topology {value!r}")
    return topo


def bootstrap_type(value: str) -> int:
    """A non-negative bootstrap resample count."""
    try:
        n_boot = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {value!r}") from None
    if n_boot < 0:
        raise argparse.ArgumentTypeError(f"--bootstrap must be >= 0, got {value}")
    return n_boot


def ci_level_type(value: str) -> float:
    """A bootstrap coverage level in (0, 1)."""
    try:
        level = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {value!r}") from None
    if not 0.0 < level < 1.0:
        raise argparse.ArgumentTypeError(
            f"--ci must be a coverage level in (0, 1), got {value}"
        )
    return level


# ----------------------------------------------------------------------
# shared flag groups
# ----------------------------------------------------------------------
def add_workers_arg(p: argparse.ArgumentParser) -> None:
    """Attach the standard ``--workers`` flag."""
    p.add_argument(
        "--workers",
        type=workers_type,
        default=None,
        metavar="N",
        help="worker processes: an integer or 'auto' "
        "(default: $REPRO_WORKERS or 1; results are identical either way)",
    )


def add_backend_arg(p: argparse.ArgumentParser) -> None:
    """Attach the standard ``--backend`` flag."""
    p.add_argument(
        "--backend",
        choices=BACKEND_NAMES,
        default=None,
        help="executor backend for parallel phases: 'local' (persistent"
        " work-stealing workers) or 'workqueue' (filesystem queue with"
        " crash retry; see $REPRO_QUEUE_DIR) (default: $REPRO_BACKEND or"
        " 'local'; results are bit-identical on every backend)",
    )


def add_cache_arg(p: argparse.ArgumentParser, what: str) -> None:
    """Attach the standard ``--cache`` flag (*what* names the artifact)."""
    p.add_argument(
        "--cache",
        type=cache_dir_type,
        metavar="DIR",
        help="artifact-cache directory; a re-run with an unchanged config"
        f" loads {what} instead of re-simulating",
    )


def add_telemetry_arg(p: argparse.ArgumentParser) -> None:
    """Attach the standard ``--telemetry`` flag.

    ``--telemetry`` alone writes next to ``--output-dir`` (or into
    ``./telemetry``); ``--telemetry DIR`` chooses the directory.  The
    empty-string ``const`` is the "flag given, no directory" sentinel
    that :func:`telemetry_dir_from` resolves.
    """
    p.add_argument(
        "--telemetry",
        nargs="?",
        const="",
        default=None,
        metavar="DIR",
        help="collect metrics/spans and write run_manifest.json,"
        " metrics.json and spans.jsonl (default DIR: --output-dir if"
        " given, else ./telemetry); never changes any result or report"
        " byte — inspect with `repro-sched stats DIR`",
    )


def add_platform_args(p: argparse.ArgumentParser) -> None:
    """Attach the standard ``--topology`` / ``--distribution`` flags."""
    from repro.sim.platform import DISTRIBUTIONS

    p.add_argument(
        "--topology",
        type=topology_type,
        default=None,
        metavar="LxM",
        help="partition the machine into equal leaves (e.g. 2x4 = 8"
        " leaves), each running its own scheduler instance; nmax must"
        " divide evenly and every job must fit one leaf (default: the"
        " paper's flat machine)",
    )
    p.add_argument(
        "--distribution",
        choices=DISTRIBUTIONS,
        default="round_robin",
        help="job-to-leaf distribution strategy for --topology runs"
        " (default: round_robin; 'random' is seeded by --seed)",
    )


def add_scale_arg(p: argparse.ArgumentParser) -> None:
    """Attach the standard ``--scale`` preset flag."""
    p.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default=None,
        help="experiment scale preset (default: $REPRO_SCALE or 'small')",
    )


# ----------------------------------------------------------------------
# flag resolution
# ----------------------------------------------------------------------
def telemetry_dir_from(args: argparse.Namespace) -> str | None:
    """The telemetry output directory, or ``None`` when not requested.

    Resolution order for a bare ``--telemetry``: the verb's
    ``--output-dir`` (reports and manifest side by side), else
    ``./telemetry``.
    """
    value = getattr(args, "telemetry", None)
    if value is None:
        return None
    if value:
        return value
    return getattr(args, "output_dir", None) or "telemetry"

