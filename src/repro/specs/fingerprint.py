"""Canonical fingerprint derivations for every cacheable artifact.

Before the spec layer existed, each subsystem hand-rolled its own cache
key: :mod:`repro.core.pipeline` hashed the distribution-relevant
pipeline fields, :mod:`repro.eval.matrix` hashed per-cell window content
plus simulation knobs (the window documents holding the cells are keyed
the same way).  This module is now the single home of those
payloads — the subsystems delegate here, and the spec classes
(:mod:`repro.specs`) derive their :meth:`~repro.specs.Spec.fingerprint`
from the same primitives — so one definition of "result-relevant"
exists per artifact kind and two layers can never drift apart.

Three invariants every derivation keeps:

* **execution-knob independence** — worker count and cache location
  never enter a payload, because the runtime guarantees
  bit-identical results for any setting;
* **canonical spellings** — callers pass registry-canonical policy
  names and the specs' backfill tokens (``"none"`` / ``"easy"`` /
  ``"conservative"`` / ``"hybrid"``), so two configs that mean the same
  thing hash the same;
* **versioned payloads** — each payload embeds a format/semantics
  version so stale entries in long-lived shared caches become misses,
  never mis-decodes.

Only :func:`repro.runtime.cache.config_fingerprint` (the hashing
primitive) is imported here, so every layer — ``core``, ``eval``,
``api``, the CLI — can depend on this module without import cycles.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.runtime.cache import config_fingerprint

__all__ = [
    "SIMULATE_CELL_FORMAT",
    "SIMULATION_SEMANTICS_VERSION",
    "SPEC_SCHEMA_VERSION",
    "distribution_fingerprint",
    "eval_cell_fingerprint",
    "eval_window_fingerprint",
    "simulate_cell_fingerprint",
    "spec_fingerprint",
]

#: Schema version written into every serialized spec document; bump on
#: incompatible field changes so newer documents are rejected loudly by
#: older libraries instead of being silently misread.
SPEC_SCHEMA_VERSION = 1

#: Bump whenever the simulation semantics behind ``build_distribution``
#: change (taskgen, trials, scoring): it invalidates every artifact-cache
#: entry, so long-lived shared caches never serve results from older
#: semantics.
SIMULATION_SEMANTICS_VERSION = 1

#: Format version of the single-simulation JSON cache entries written by
#: :func:`repro.api.run` for :class:`~repro.specs.SimulateSpec`.
SIMULATE_CELL_FORMAT = 1


def distribution_fingerprint(
    *,
    n_tuples: int,
    trials_per_tuple: int,
    nmax: int,
    s_size: int,
    q_size: int,
    seed: int,
    tau: float,
    balanced_trials: bool,
    lublin_params: object = None,
) -> str:
    """Key of a pooled score distribution (the training-cache entry).

    Byte-compatible with the key :func:`repro.core.pipeline.
    distribution_cache_key` historically produced, so existing cache
    directories stay valid.
    """
    return config_fingerprint(
        {
            "semantics": SIMULATION_SEMANTICS_VERSION,
            "n_tuples": n_tuples,
            "trials_per_tuple": trials_per_tuple,
            "nmax": nmax,
            "s_size": s_size,
            "q_size": q_size,
            "seed": seed,
            "tau": tau,
            "balanced_trials": balanced_trials,
            "lublin_params": lublin_params,
        }
    )


def _eval_payload(
    kind: str,
    *,
    window_fingerprint: str,
    nmax: int,
    use_estimates: bool,
    tau: float,
    cell_format: int,
    platform: Mapping[str, object] | None,
) -> dict[str, object]:
    """The payload an evaluation window shares with each of its cells."""
    payload: dict[str, object] = {
        "kind": kind,
        "format": cell_format,
        "window": window_fingerprint,
        "nmax": nmax,
        "use_estimates": use_estimates,
        "tau": tau,
    }
    if platform is not None:
        payload["platform"] = dict(platform)
    return payload


def eval_window_fingerprint(
    *,
    window_fingerprint: str,
    nmax: int,
    use_estimates: bool,
    tau: float,
    cell_format: int,
    platform: Mapping[str, object] | None = None,
) -> str:
    """Key of one evaluation window's cache document.

    The document holds the window's cells as members keyed by
    :func:`eval_cell_fingerprint`, so its payload is a cell's without
    the policy and backfill axes; *platform* enters under the same
    only-when-partitioned rule.
    """
    return config_fingerprint(
        _eval_payload(
            "eval-window",
            window_fingerprint=window_fingerprint,
            nmax=nmax,
            use_estimates=use_estimates,
            tau=tau,
            cell_format=cell_format,
            platform=platform,
        )
    )


def eval_cell_fingerprint(
    *,
    window_fingerprint: str,
    policy: str,
    backfill: str,
    nmax: int,
    use_estimates: bool,
    tau: float,
    cell_format: int,
    platform: Mapping[str, object] | None = None,
) -> str:
    """Key of one evaluation-matrix cell (window × policy × backfill).

    The window's content hash (:meth:`repro.eval.windows.Window.
    fingerprint`) stands in for the trace, so keys are independent of
    file paths and of the batch/streaming slicer that produced the
    window.  Byte-compatible with the historical per-cell keys of
    :mod:`repro.eval.matrix`: *platform* — the partitioned-platform
    identity from :func:`repro.sim.platform.platform_identity` — enters
    the payload only when non-``None``, and flat platforms pass ``None``,
    so every pre-platform key is reproduced exactly.  The key names the
    cell's member in its window's document (:func:`eval_window_fingerprint`).
    """
    payload = _eval_payload(
        "eval-cell",
        window_fingerprint=window_fingerprint,
        nmax=nmax,
        use_estimates=use_estimates,
        tau=tau,
        cell_format=cell_format,
        platform=platform,
    )
    payload["policy"] = policy
    payload["backfill"] = backfill
    return config_fingerprint(payload)


def simulate_cell_fingerprint(
    *,
    workload_fingerprint: str,
    policy: str,
    backfill: str,
    nmax: int,
    use_estimates: bool,
    tau: float,
    platform: Mapping[str, object] | None = None,
) -> str:
    """Key of one whole-workload simulation (the ``simulate`` verb).

    Content-addressed exactly like the evaluation cells: the workload's
    array hash (:func:`repro.eval.windows.workload_fingerprint`) rather
    than its path or name, so renaming an SWF file cannot fork the
    cache.  *platform* follows the same only-when-partitioned rule as
    :func:`eval_cell_fingerprint`, keeping historical flat keys
    byte-identical.
    """
    payload: dict[str, object] = {
        "kind": "simulate-cell",
        "format": SIMULATE_CELL_FORMAT,
        "workload": workload_fingerprint,
        "policy": policy,
        "backfill": backfill,
        "nmax": nmax,
        "use_estimates": use_estimates,
        "tau": tau,
    }
    if platform is not None:
        payload["platform"] = dict(platform)
    return config_fingerprint(payload)


def spec_fingerprint(kind: str, payload: Mapping[str, object]) -> str:
    """Identity hash of one declared experiment (spec-level).

    *payload* holds the spec's **resolved, result-relevant** fields —
    scale presets expanded to numbers, canonical policy/backfill
    spellings, execution knobs excluded — so a spec built from CLI
    flags, a TOML file or Python literals fingerprints identically
    whenever the experiments are identical.
    """
    return config_fingerprint(
        {"kind": f"spec:{kind}", "schema": SPEC_SCHEMA_VERSION, "payload": dict(payload)}
    )
