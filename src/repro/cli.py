"""Command-line interface (``repro-sched``).

Mirrors the three artifact workflows plus convenience commands::

    repro-sched train      # §3: tuples -> trials -> distribution -> regression
    repro-sched simulate   # schedule a workload under one policy
    repro-sched evaluate   # policy x backfill matrix over trace windows
    repro-sched table4     # regenerate Table 4 rows, paper-vs-measured
    repro-sched run        # execute any experiment spec (TOML/JSON file)
    repro-sched sweep      # expand + execute a sweep spec's parameter grid
    repro-sched fetch      # download + verify real PWA traces (pwa:<name>)
    repro-sched figures    # regenerate Figures 1-3 data
    repro-sched trace      # emit a synthetic trace stand-in as SWF
    repro-sched analyze    # characterise a workload / policy agreement
    repro-sched info       # library / scale / policy inventory
    repro-sched stats      # render a run's telemetry manifest
    repro-sched lint       # static analysis: enforce the repro contracts

Every experiment verb (``train`` / ``simulate`` / ``evaluate`` /
``table4``) is a thin adapter: its flags are derived from the fields of
the matching :mod:`repro.specs` dataclass (one ``--field-name`` per
field), it builds that spec from the flags given and dispatches through
:func:`repro.api.run`, sharing one output path with ``repro-sched run
<spec file>`` — so a flag invocation and the equivalent spec file
produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
import typing
from pathlib import Path

import numpy as np

import repro
from repro import api
from repro.obs import (
    MetricsRegistry,
    Tracer,
    build_manifest,
    current_registry,
    current_tracer,
    read_manifest,
    render_manifest,
    use_registry,
    use_tracer,
    write_manifest,
)
from repro.eval import (
    render_matrix_report,
    render_paper_comparison,
    write_matrix_report,
)
from repro.experiments.figures import (
    fig1_trial_score_distributions,
    fig2_trial_convergence,
    fig3_policy_maps,
)
from repro.experiments.paper_data import paper_row
from repro.experiments.report import render_comparison, render_statistics
from repro.experiments.scale import SCALES, Scale, current_scale
from repro.experiments.table4 import row_ids
from repro.policies.registry import available_policies, get_policy
from repro.runtime.cache import coerce_cache
from repro.runtime.config import (
    resolve_scale,
    resolve_sim_kernel,
    resolve_workers,
)
from repro.specs import (
    EvaluateSpec,
    SimulateSpec,
    Spec,
    SpecError,
    SweepSpec,
    Table4Spec,
    TrainSpec,
    load_spec,
    spec_kinds,
)
from repro.traces import (
    TraceFetchError,
    TraceUnavailableError,
    UnknownTraceError,
    cached_trace_path,
    fetch_trace,
    is_trace_ref,
    paper_prefix_for,
    resolve_trace_ref,
    trace_cache_dir,
    trace_ref_name,
    trace_sources,
)
from repro.workloads.swf import read_swf, write_swf
from repro.workloads.traces import synthetic_trace, trace_names


# ----------------------------------------------------------------------
# flags: derived from the spec dataclasses, plus the run and emitter flags
# ----------------------------------------------------------------------
def split_csv(value: str) -> tuple[str, ...]:
    """Comma-separated list -> stripped, non-empty items."""
    items = tuple(part.strip() for part in value.split(",") if part.strip())
    if not items:
        raise argparse.ArgumentTypeError(f"empty list {value!r}")
    return items


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


def cache_dir_type(value: str) -> str:
    """A path that is usable as a cache directory."""
    if os.path.exists(value) and not os.path.isdir(value):
        raise argparse.ArgumentTypeError(f"{value!r} exists and is not a directory")
    return value


def _flag_type(hint: object):
    """The argparse ``type`` of a spec field annotation."""
    if type(None) in typing.get_args(hint):  # ``X | None`` parses as ``X``
        (hint,) = (arg for arg in typing.get_args(hint) if arg is not type(None))
    if typing.get_origin(hint) is tuple:
        return topology_type if typing.get_args(hint)[0] is int else split_csv
    return hint


def add_spec_flags(parser: argparse.ArgumentParser, spec_cls: type[Spec]) -> None:
    """One ``--field-name`` flag per field of *spec_cls*.

    The parse type follows the annotation (``bool`` gains a ``--no-``
    negation, tuples are comma lists or ``AxB`` topologies); help text
    and legacy spellings come from the field's metadata.  An absent flag
    leaves its field out of the namespace, so the spec's own default and
    validation are the only copy.
    """
    hints = typing.get_type_hints(spec_cls)
    for f in dataclasses.fields(spec_cls):
        help_text = f.metadata.get("help", "")
        if f.default is not None:
            shown = ",".join(f.default) if isinstance(f.default, tuple) else f.default
            help_text = f"{help_text} (default: {shown})".lstrip()
        kwargs = {"dest": f.name, "default": argparse.SUPPRESS, "help": help_text}
        if hints[f.name] is bool:
            kwargs["action"] = argparse.BooleanOptionalAction
        else:
            kwargs["type"] = _flag_type(hints[f.name])
        parser.add_argument(
            f.metadata.get("flag", "--" + f.name.replace("_", "-")), **kwargs
        )


def spec_from_args(args: argparse.Namespace) -> Spec:
    """The spec the parsed flags of a flag verb declare.

    Only the flags given reach the constructor; a bad value exits naming
    the verb and the spec's own error.
    """
    spec_cls = args.spec_cls
    given = {
        f.name: getattr(args, f.name)
        for f in dataclasses.fields(spec_cls)
        if hasattr(args, f.name)
    }
    if getattr(args, "synthetic_fallback", False):
        given.update(_synthetic_fallback(given.get("trace")))
    try:
        return spec_cls(**given)
    except SpecError as exc:
        raise SystemExit(f"repro-sched {spec_cls.kind}: {exc}") from None


def _add_run_flags(p: argparse.ArgumentParser, *, cache: bool = True) -> None:
    """``--workers`` / ``--cache`` / ``--telemetry``.

    Their default is ``None``: an absent flag falls through to the
    environment in :mod:`repro.runtime.config`, the same resolvers
    :func:`repro.api.run` uses.  ``--telemetry`` alone is the empty
    string, which :func:`telemetry_dir_from` resolves.
    """
    p.add_argument(
        "--workers",
        metavar="N",
        help="worker processes: an integer or 'auto' "
        "(default: $REPRO_WORKERS or 1; results are identical either way)",
    )
    if cache:
        p.add_argument(
            "--cache",
            type=cache_dir_type,
            metavar="DIR",
            help="artifact-cache directory; a re-run with an unchanged config"
            " loads every cached artifact instead of re-simulating, and a"
            " killed training run resumes from the tuples it stored",
        )
    p.add_argument(
        "--telemetry",
        nargs="?",
        const="",
        metavar="DIR",
        help="collect metrics/spans and write run_manifest.json,"
        " metrics.json and spans.jsonl (default DIR: --output-dir if"
        " given, else ./telemetry); never changes any result or report"
        " byte — inspect with `repro-sched stats DIR`",
    )


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


def _scale(command: str, name: str | None = None) -> Scale:
    """The scale preset *name* (else ``$REPRO_SCALE``'s); a bad name exits."""
    try:
        return current_scale(name)
    except KeyError as exc:
        raise SystemExit(f"repro-sched {command}: {exc.args[0]}") from None


# ----------------------------------------------------------------------
# spec execution and per-kind emitters (shared by the verbs and `run`)
# ----------------------------------------------------------------------
def _standard_progress(stage: str, done: int, total: int) -> None:
    if done == total or done % max(total // 10, 1) == 0:
        print(f"  [{stage}] {done}/{total}", file=sys.stderr)


def _run_knobs(spec: Spec, args: argparse.Namespace, command: str) -> dict:
    """The three run knobs, resolved once: flag (or spec field), else
    environment, else default.  A bad value exits naming its source."""
    try:
        return {
            "workers": resolve_workers(getattr(args, "workers", None)),
            "scale": resolve_scale(getattr(spec, "scale", None) or None),
            "sim_kernel": resolve_sim_kernel(),
        }
    except (KeyError, ValueError) as exc:
        raise SystemExit(f"repro-sched {command}: {exc.args[0]}") from None


def _dispatch(spec: Spec, args: argparse.Namespace, *, command: str) -> int:
    """Run *spec* through the facade and emit its result.

    With ``--telemetry`` the same execution path runs inside an ambient
    :class:`~repro.obs.MetricsRegistry` and :class:`~repro.obs.Tracer`
    and a run manifest is written afterwards; the spec, its results and
    every report byte are identical either way (the telemetry notice
    goes to stderr).
    """
    if isinstance(spec, EvaluateSpec) and spec.trace is None:
        print(
            f"no trace given: using synthetic stand-in {spec.synthetic!r}"
            f" ({spec.jobs} jobs)",
            file=sys.stderr,
        )
    knobs = _run_knobs(spec, args, command)
    telemetry_dir = telemetry_dir_from(args)
    # Without --telemetry the ambient sinks stay as they are (no-ops by
    # default).  The cache is coerced *here* so its per-instance counters
    # can be merged into the manifest after the run.
    cache = coerce_cache(getattr(args, "cache", None))
    registry = current_registry() if telemetry_dir is None else MetricsRegistry()
    tracer = current_tracer() if telemetry_dir is None else Tracer()
    t_start = time.perf_counter()
    with use_registry(registry), use_tracer(tracer):
        try:
            with tracer.span("execute", kind=spec.kind):
                result = api.run(
                    spec,
                    workers=knobs["workers"],
                    cache=cache,
                    progress=_standard_progress,
                )
        except (SpecError, KeyError, ValueError) as exc:
            raise SystemExit(f"repro-sched {command}: {exc}") from None
        with tracer.span("report"):
            _EMITTERS[spec.kind](spec, result, args)
    if telemetry_dir is None:
        return 0
    wall = time.perf_counter() - t_start
    if cache is not None:
        registry.merge(cache.metrics)
    directory = Path(telemetry_dir)
    manifest_path = write_manifest(
        directory,
        build_manifest(
            registry=registry,
            tracer=tracer,
            spec=spec,
            command=command,
            wall_seconds=wall,
            **knobs,
        ),
    )
    tracer.write_jsonl(directory / "spans.jsonl")
    (directory / "metrics.json").write_text(
        json.dumps(registry.to_dict(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(
        f"telemetry written to {manifest_path}"
        f" (inspect with `repro-sched stats {directory}`)",
        file=sys.stderr,
    )
    return 0


def _emit_train(spec: TrainSpec, result, args: argparse.Namespace) -> None:
    print(result.report(spec.top_k))
    output = getattr(args, "output", None)
    if output:
        result.distribution.to_csv(output)
        print(f"score distribution written to {output}")


def _emit_simulate(spec: SimulateSpec, report, args: argparse.Namespace) -> None:
    print(report.line())


def _emit_evaluate(spec: EvaluateSpec, result, args: argparse.Namespace) -> None:
    # pwa: references and synthetic stand-ins have attested identities,
    # so their reports carry the paper-vs-measured comparison block; a
    # plain file path claims nothing and gets none.
    paper = paper_prefix_for(spec.trace, spec.synthetic if spec.trace is None else None)
    print(
        render_matrix_report(
            result,
            baseline=spec.baseline,
            n_boot=spec.bootstrap,
            level=spec.ci,
        )
    )
    if paper is not None:
        block = render_paper_comparison(result, paper)
        if block is not None:
            print()
            print(block)
    output_dir = getattr(args, "output_dir", None)
    if output_dir:
        paths = write_matrix_report(
            output_dir,
            result,
            baseline=spec.baseline,
            n_boot=spec.bootstrap,
            level=spec.ci,
            paper=paper,
        )
        print(f"wrote {len(paths)} report file(s) to {output_dir}")


def _emit_table4(spec: Table4Spec, results, args: argparse.Namespace) -> None:
    for rid, result in zip(spec.resolved_rows(), results):
        print(render_statistics(result))
        print(render_comparison(result, paper_row(rid), title=f"[{rid}]"))
        if getattr(args, "plot", False):
            print(result.ascii_plot())
        print()


def _emit_sweep(spec: SweepSpec, result, args: argparse.Namespace) -> None:
    print(result.summary_table())
    output_dir = getattr(args, "output_dir", None)
    if output_dir:
        from pathlib import Path

        directory = Path(output_dir)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / "sweep_summary.csv"
        path.write_text(result.summary_csv(), encoding="utf-8")
        print(f"wrote sweep summary to {path}")


_EMITTERS = {
    "train": _emit_train,
    "simulate": _emit_simulate,
    "evaluate": _emit_evaluate,
    "table4": _emit_table4,
    "sweep": _emit_sweep,
}

#: The flags the emitters read: flag -> (spec kinds, argparse kwargs).
_EMITTER_FLAGS = {
    "--output": (
        ("train",),
        {"metavar": "FILE", "help": "train: write the score distribution CSV here"},
    ),
    "--output-dir": (
        ("evaluate", "sweep"),
        {
            "metavar": "DIR",
            "help": "evaluate: also write eval_matrix.csv / .json /"
            " _deltas.csv here; sweep: write sweep_summary.csv here",
        },
    ),
    "--plot": (("table4",), {"action": "store_true", "help": "table4: ASCII boxplots"}),
}


def _add_emitter_flags(p: argparse.ArgumentParser, kinds: tuple[str, ...]) -> None:
    """The emitter flags read by any of the spec *kinds*."""
    for flag, (readers, kwargs) in _EMITTER_FLAGS.items():
        if set(readers) & set(kinds):
            p.add_argument(flag, **kwargs)


# ----------------------------------------------------------------------
# experiment verbs: flags -> spec -> api.run
# ----------------------------------------------------------------------
def _synthetic_fallback(trace: str | None) -> dict:
    """Resolve ``--synthetic-fallback``: the spec fields it overrides.

    When the ``pwa:<name>`` trace is *absent* from the local cache, the
    run proceeds against the synthetic stand-in of the same name (the
    spec is built with ``trace=None``/``synthetic=name``, so its
    fingerprint honestly names the synthetic source).  The probe is a
    cheap existence check — full content verification happens exactly
    once, when the spec resolves the reference — so a *present but
    corrupt* cache entry does not fall back silently: it surfaces the
    resolution error naming ``repro-sched fetch``, exactly as runs
    without the flag do.
    """
    if not is_trace_ref(trace):
        return {}
    name = trace_ref_name(trace)
    if cached_trace_path(name).is_file():
        return {}
    if name not in trace_names():
        raise SystemExit(
            f"repro-sched evaluate: trace {trace} is not in the local cache"
            f" ({trace_cache_dir()}) and no synthetic stand-in named"
            f" {name!r} exists to fall back to; run `repro-sched fetch"
            f" {name}` to download it"
        )
    print(
        f"warning: {trace} is not in the local trace cache; falling back"
        f" to the synthetic stand-in {name!r} (run `repro-sched fetch"
        f" {name}` to evaluate the real trace)",
        file=sys.stderr,
    )
    return {"trace": None, "synthetic": name}


def _cmd_spec(args: argparse.Namespace) -> int:
    spec = spec_from_args(args)
    serial_rows = (
        isinstance(spec, Table4Spec)
        and telemetry_dir_from(args) is None
        and _run_knobs(spec, args, spec.kind)["workers"] == 1
    )
    if not serial_rows:
        return _dispatch(spec, args, command=spec.kind)
    # Serial Table 4: run one single-row spec at a time so a long
    # regeneration shows results (and survives interruption) row by row —
    # same results, still routed through the facade.  With --telemetry the
    # rows run as one dispatch so the run gets one manifest covering all.
    for rid in spec.resolved_rows():
        _dispatch(dataclasses.replace(spec, rows=(rid,)), args, command=spec.kind)
    return 0


# ----------------------------------------------------------------------
# spec-file verbs
# ----------------------------------------------------------------------
def _cmd_run(args: argparse.Namespace) -> int:
    try:
        spec = load_spec(args.spec)
    except SpecError as exc:
        raise SystemExit(f"repro-sched run: {exc}") from None
    return _dispatch(spec, args, command="run")


def _cmd_sweep(args: argparse.Namespace) -> int:
    try:
        spec = load_spec(args.spec)
    except SpecError as exc:
        raise SystemExit(f"repro-sched sweep: {exc}") from None
    if not isinstance(spec, SweepSpec):
        raise SystemExit(
            f"repro-sched sweep: {args.spec} holds a {spec.kind!r} spec,"
            " not a sweep (use `repro-sched run` for single specs)"
        )
    return _dispatch(spec, args, command="sweep")


# ----------------------------------------------------------------------
# trace acquisition
# ----------------------------------------------------------------------
def _cmd_fetch(args: argparse.Namespace) -> int:
    sources = trace_sources()
    names = sorted(sources) if args.all else list(args.names)
    if not names:
        # Listing mode: the registry with per-trace cache status.  A
        # cheap existence check keeps the listing instant with multi-GB
        # traces cached; content is verified on every fetch/resolve.
        print(f"trace cache: {trace_cache_dir(args.dir)}")
        for key in sorted(sources):
            source = sources[key]
            cached = cached_trace_path(key, directory=args.dir).is_file()
            status = "cached" if cached else "not fetched"
            print(f"  pwa:{key:<16s} {source.display_name} [{status}]")
            print(f"      source: {source.url}")
            print(f"      sha256: {source.sha256}")
            if source.notes:
                print(f"      notes:  {source.notes}")
        print(
            "\nfetch with `repro-sched fetch <name>` (or --all), then evaluate"
            " with `repro-sched evaluate --trace pwa:<name>`."
        )
        print(f"license: {next(iter(sources.values())).license}")
        return 0
    for name in names:
        try:
            result = fetch_trace(name, directory=args.dir, force=args.force)
        except (UnknownTraceError, TraceFetchError) as exc:
            raise SystemExit(f"repro-sched fetch: {exc}") from None
        print(result.line())
        if not result.was_cached:
            print(f"  source: {result.source.url}")
            print(f"  license: {result.source.license}")
    return 0


# ----------------------------------------------------------------------
# convenience commands (no spec: presentation/IO utilities)
# ----------------------------------------------------------------------
def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.experiments.export import write_all

    scale = _scale("figures", args.scale)
    fig1 = fig2 = None
    fig3_panels = []
    if args.figure in ("1", "all"):
        fig1 = fig1_trial_score_distributions(
            n_trials=min(scale.trials_per_tuple, 1024), seed=args.seed
        )  # noqa: F841 - also exported below
        print(f"Figure 1 (mean line = {fig1.mean_line:.3f}):")
        for i, panel in enumerate(fig1.panels):
            print(f"  panel {i}: " + " ".join(f"{s:.4f}" for s in panel))
    if args.figure in ("2", "all"):
        fig2 = fig2_trial_convergence(
            scale.fig2_trial_counts, repeats=scale.fig2_repeats, seed=args.seed
        )
        print("Figure 2 (trials -> normalized std):")
        for count, std in fig2.series():
            print(f"  {count:>8d} {std:.4f}")
    if args.figure in ("3", "all"):
        for pair in ("rn", "rs", "ns"):
            maps = fig3_policy_maps(pair)
            fig3_panels.append(maps)
            print(f"Figure 3 panel {pair}: policies {sorted(maps.maps)}")
            for name, grid in maps.maps.items():
                print(
                    f"  {name}: corner priorities "
                    f"ll={grid[0, 0]:.2f} lr={grid[0, -1]:.2f} "
                    f"ul={grid[-1, 0]:.2f} ur={grid[-1, -1]:.2f}"
                )
    if args.output_dir:
        paths = write_all(
            args.output_dir, fig1=fig1, fig2=fig2, fig3_panels=fig3_panels
        )
        print(f"wrote {len(paths)} CSV file(s) to {args.output_dir}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    wl = synthetic_trace(args.name, seed=args.seed, n_jobs=args.jobs)
    if args.output:
        write_swf(wl, args.output)
        print(f"{len(wl)} jobs written to {args.output}")
    else:
        sys.stdout.write(write_swf(wl))
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.policies.analysis import agreement_matrix
    from repro.workloads.analysis import profile_workload

    if args.swf:
        try:
            wl = read_swf(resolve_trace_ref(args.swf))
        except (TraceUnavailableError, UnknownTraceError) as exc:
            raise SystemExit(f"repro-sched analyze: {exc}") from None
    elif args.trace:
        wl = synthetic_trace(args.trace, seed=args.seed, n_jobs=args.jobs)
    else:
        wl = repro.apply_tsafrir(
            repro.lublin_workload(args.jobs or 3000, args.nmax, seed=args.seed),
            seed=args.seed + 1,
        )
        wl = wl.with_name("lublin model")
    print(profile_workload(wl, nmax=args.nmax or wl.nmax or None).to_text())
    if args.agreement:
        policies = [get_policy(n) for n in args.agreement]
        names, mat = agreement_matrix(policies, wl)
        print("\nqueue-order agreement (Kendall tau):")
        print("        " + "".join(f"{n:>7s}" for n in names))
        for i, name in enumerate(names):
            row = "".join(f"{mat[i, j]:>7.2f}" for j in range(len(names)))
            print(f"{name:>7s} {row}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    try:
        doc = read_manifest(args.run_dir)
    except (FileNotFoundError, ValueError, OSError) as exc:
        raise SystemExit(f"repro-sched stats: {exc}") from None
    print(render_manifest(doc))
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    print(f"repro {repro.__version__}")
    print(f"scales: {', '.join(sorted(SCALES))} (current: {_scale('info').name})")
    print(f"policies: {', '.join(available_policies())}")
    print(f"traces: {', '.join(trace_names())}")
    print(
        "pwa traces: "
        + ", ".join(f"pwa:{name}" for name in sorted(trace_sources()))
        + " (repro-sched fetch)"
    )
    print(f"table4 rows: {', '.join(row_ids())}")
    print(f"spec kinds: {', '.join(spec_kinds())}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    # Imported lazily: the analysis package pulls in tokenize/ast
    # machinery no other verb needs.
    from repro import analysis

    if args.list_rules:
        for rule in analysis.all_rules():
            print(f"{rule.id}  {rule.name} [{rule.severity}]")
            print(f"    contract: {rule.contract}")
            print(f"    backstop: {rule.backstop}")
        return 0
    try:
        result = analysis.LintEngine().lint_paths(args.paths)
    except (FileNotFoundError, ValueError) as exc:
        raise SystemExit(f"repro-sched lint: {exc}") from None
    renderer = {
        "terminal": analysis.render_terminal,
        "json": analysis.render_json,
        "github": analysis.render_github,
    }[args.format]
    print(renderer(result), end="" if args.format == "json" else "\n")
    return result.exit_code


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-sched",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for spec_cls, verb_help in (
        (TrainSpec, "run the policy-obtaining pipeline (§3)"),
        (SimulateSpec, "schedule one workload under one policy"),
        (EvaluateSpec, "policy x backfill matrix over trace windows"),
        (Table4Spec, "regenerate Table 4 rows"),
    ):
        p = sub.add_parser(
            spec_cls.kind,
            help=verb_help,
            description=f"{verb_help}. Every field of the {spec_cls.kind!r}"
            " spec is a flag; an absent flag keeps the spec's default.",
        )
        add_spec_flags(p, spec_cls)
        _add_emitter_flags(p, (spec_cls.kind,))
        _add_run_flags(p, cache=spec_cls is not Table4Spec)
        p.set_defaults(func=_cmd_spec, spec_cls=spec_cls)
        if spec_cls is EvaluateSpec:
            p.add_argument(
                "--synthetic-fallback",
                action="store_true",
                help="when a pwa:<name> trace is not in the local cache,"
                " evaluate the synthetic stand-in of the same name instead",
            )

    p = sub.add_parser(
        "run",
        help="execute an experiment spec from a TOML/JSON file",
        description="Execute any spec document (kinds: "
        + ", ".join(spec_kinds())
        + "). Equivalent flag invocations produce byte-identical reports.",
    )
    p.add_argument("spec", metavar="SPEC.toml", help="spec document to execute")
    _add_emitter_flags(p, tuple(_EMITTERS))
    _add_run_flags(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser(
        "sweep",
        help="expand a sweep spec's grid and execute every child spec",
        description="Execute a sweep spec: the base spec is fanned over the"
        " parameter grid, sharing one artifact cache, so re-running an"
        " extended grid only simulates the new cells.",
    )
    p.add_argument("spec", metavar="SWEEP.toml", help="sweep spec document")
    _add_emitter_flags(p, ("sweep",))
    _add_run_flags(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser(
        "fetch",
        help="download + verify real PWA traces into the local cache",
        description="Download registered Parallel Workloads Archive traces"
        " into the content-verified local cache ($REPRO_TRACE_DIR, default"
        " ~/.cache/repro/traces). Downloads are atomic, gzip transport is"
        " decompressed on the fly, and every file is checked against the"
        " registry's pinned SHA-256 — re-fetching a verified trace"
        " downloads nothing. Bare `fetch` lists the registry with cache"
        " status. Fetched traces are addressed as pwa:<name> wherever a"
        " trace path is accepted.",
    )
    p.add_argument(
        "names",
        nargs="*",
        metavar="TRACE",
        help="registered trace names (bare `fetch` lists the registry)",
    )
    p.add_argument(
        "--all", action="store_true", help="fetch every registered trace"
    )
    p.add_argument(
        "--force",
        action="store_true",
        help="re-download even when the cached copy verifies",
    )
    p.add_argument(
        "--dir",
        default=None,
        metavar="DIR",
        help="trace cache directory (default: $REPRO_TRACE_DIR or"
        " ~/.cache/repro/traces)",
    )
    p.set_defaults(func=_cmd_fetch)

    p = sub.add_parser("figures", help="regenerate Figures 1-3 data")
    p.add_argument("--figure", choices=("1", "2", "3", "all"), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output-dir", help="also write the series as CSV files")
    p.add_argument(
        "--scale", help="experiment scale preset (default: $REPRO_SCALE or 'small')"
    )
    p.set_defaults(func=_cmd_figures)

    p = sub.add_parser("trace", help="emit a synthetic trace stand-in as SWF")
    p.add_argument("name", choices=trace_names())
    p.add_argument("--jobs", type=int, default=5000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("analyze", help="characterise a workload")
    p.add_argument(
        "--swf",
        metavar="FILE.swf|pwa:NAME",
        help="SWF file to profile (a path or a pwa:<name> reference)",
    )
    p.add_argument("--trace", choices=trace_names())
    p.add_argument("--jobs", type=int, default=None)
    p.add_argument("--nmax", type=int, default=256)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--agreement",
        nargs="*",
        metavar="POLICY",
        help="also print the Kendall-tau agreement matrix of these policies",
    )
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser(
        "stats",
        help="render a run's telemetry manifest",
        description="Render the run_manifest.json a --telemetry run wrote:"
        " phase durations, cache hit/miss/byte accounting, jobs and events"
        " simulated, throughput and the cumulative timer table.",
    )
    p.add_argument(
        "run_dir",
        metavar="RUN_DIR",
        help="telemetry directory (or a run_manifest.json path)",
    )
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("info", help="library inventory")
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser(
        "lint",
        help="static analysis: enforce the repro contracts",
        description="Run the AST rule engine (REP001..REP009) that"
        " machine-enforces the repo's determinism, fingerprint-purity,"
        " telemetry-isolation and atomic-persistence contracts."
        " Exit code is 1 when any active finding remains. Lint has no"
        " configuration: an inline `# repro: allow[RULE-ID] reason`,"
        " with a justification, is the only way to silence a rule."
        " See docs/invariants.md.",
    )
    p.add_argument(
        "paths",
        metavar="PATHS",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    p.add_argument(
        "--format",
        choices=("terminal", "json", "github"),
        default="terminal",
        help="output format (default: terminal)",
    )
    p.add_argument(
        "--list-rules",
        action="store_true",
        help="print every rule's id, contract and backstop, then exit",
    )
    p.set_defaults(func=_cmd_lint)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    np.seterr(all="ignore")  # candidate functions legitimately over/underflow
    args = build_parser().parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe early (``stats DIR | head -1``): point
        # stdout at devnull so the exit-time flush cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return status


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
