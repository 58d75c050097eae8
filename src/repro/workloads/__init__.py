"""Workload substrates: generative models, SWF I/O, trace stand-ins."""

from repro.workloads.analysis import WorkloadProfile, profile_workload
from repro.workloads.lublin import (
    LublinParams,
    lublin_workload,
    sample_arrivals,
    sample_runtimes,
    sample_sizes,
    scale_to_utilization,
    two_stage_uniform,
)
from repro.workloads.sequences import extract_sequences, sequence_windows
from repro.workloads.swf import parse_swf_text, read_swf, write_swf
from repro.workloads.traces import TRACES, TraceSpec, synthetic_trace, trace_names
from repro.workloads.tsafrir import (
    POPULAR_ESTIMATES,
    TsafrirParams,
    apply_tsafrir,
    tsafrir_estimates,
)

__all__ = [
    "LublinParams",
    "WorkloadProfile",
    "profile_workload",
    "POPULAR_ESTIMATES",
    "TRACES",
    "TraceSpec",
    "TsafrirParams",
    "apply_tsafrir",
    "extract_sequences",
    "lublin_workload",
    "parse_swf_text",
    "read_swf",
    "sample_arrivals",
    "sample_runtimes",
    "sample_sizes",
    "scale_to_utilization",
    "sequence_windows",
    "synthetic_trace",
    "trace_names",
    "tsafrir_estimates",
    "two_stage_uniform",
    "write_swf",
]
