"""Spec machinery: serialization, validation, registry, fingerprints.

A *spec* is a frozen dataclass that declares one experiment as plain
data.  Every concrete spec (:class:`~repro.specs.TrainSpec`,
:class:`~repro.specs.EvaluateSpec`, …) registers itself under a ``kind``
string and inherits four capabilities from :class:`Spec`:

* ``to_dict()`` / ``from_dict()`` — lossless round-trip through plain
  JSON-able mappings, with schema-version checking (documents written by
  a *newer* library are rejected, not misread) and unknown-key errors
  that name both the offending and the valid keys;
* :func:`load_spec` — the same round-trip from TOML or
  JSON documents on disk (the ``spec`` key names the kind);
* ``fingerprint()`` — a canonical identity hash over the spec's
  *resolved, result-relevant* fields
  (:func:`repro.specs.fingerprint.spec_fingerprint`), so equal
  experiments hash equal however they were authored;
* dataclass equality — a spec built from CLI flags compares equal to
  one loaded from a file when the declared experiments match.

A field's dataclass declaration is its only declaration.  The CLI derives
the field's flag from it, and :meth:`Spec.__post_init__` checks every
``bool`` / ``int`` / ``float`` / ``str`` / ``tuple[str, ...]`` field (and
``X | None`` of those) against its annotation — an ``int`` field's lower
bound is its ``"min"`` metadata, and a ``tuple[str, ...]`` field takes a
tuple or list of strings, never a bare string — before running the
kind's :meth:`~Spec._validate` hook of value rules.  That method is the
one place a field value raises :class:`SpecError`.

Spec modules import only the standard library and this package at module
scope; anything heavier (policy registry, scale presets, trace
registries) is imported lazily inside validation and conversion methods,
which keeps ``repro.specs`` importable from every layer without cycles.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import typing
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path
from typing import Any, ClassVar

from repro.specs.fingerprint import SPEC_SCHEMA_VERSION, spec_fingerprint

__all__ = [
    "Spec",
    "SpecError",
    "load_spec",
    "register_spec",
    "spec_class_for",
    "spec_kinds",
]


class SpecError(ValueError):
    """A spec document or spec field failed validation."""


#: Flag metadata of the fields several kinds declare alike.
TAU_HELP = {"help": "bounded-slowdown threshold in seconds (default: 10)"}
TOPOLOGY_HELP = {
    "help": "partition the machine into equal leaves, e.g. 2x4 = 8 leaves"
    " each running its own scheduler; nmax must divide evenly"
    " (default: the paper's flat machine)"
}
DISTRIBUTION_HELP = {
    "help": "job-to-leaf strategy of a --topology run: round_robin,"
    " by_size or random (seeded by --seed)"
}

#: What a checked field takes, by its ``(type, "min" metadata)``; every
#: ``int`` field declares its lower bound.
_WANTED = {
    (bool, None): "a boolean",
    (float, None): "a finite number",
    (int, 0): "a non-negative integer",
    (int, 1): "a positive integer",
    (str, None): "a string",
    (tuple[str, ...], None): "a list of strings",
}


_REGISTRY: dict[str, type["Spec"]] = {}


def register_spec(cls: type["Spec"]) -> type["Spec"]:
    """Class decorator: make *cls* loadable by its ``kind`` string."""
    if not cls.kind:
        raise TypeError(f"{cls.__name__} must define a non-empty 'kind'")
    if cls.kind in _REGISTRY:
        raise TypeError(f"duplicate spec kind {cls.kind!r}")
    _REGISTRY[cls.kind] = cls
    return cls


def spec_kinds() -> list[str]:
    """All registered spec kinds, sorted."""
    return sorted(_REGISTRY)


def spec_class_for(kind: str) -> type["Spec"]:
    """The spec class registered under *kind* (:class:`SpecError` if none)."""
    try:
        return _REGISTRY[kind]
    except KeyError:
        raise SpecError(
            f"unknown spec kind {kind!r}; available: {', '.join(spec_kinds())}"
        ) from None


@dataclass(frozen=True)
class Spec:
    """Base class of every experiment spec (see the module docstring)."""

    #: Registry key and the value of the ``spec`` field in documents.
    kind: ClassVar[str] = ""

    def __post_init__(self) -> None:
        for name, wanted, optional, minimum, words in _checked_fields(type(self)):
            value = getattr(self, name)
            if not _fits(value, wanted, optional, minimum):
                raise SpecError(f"{name} must be {words}, got {value!r}")
        try:
            self._validate()
        except (KeyError, TypeError, ValueError) as exc:
            raise SpecError(f"invalid {self.kind} spec: {exc.args[0]}") from None

    def _validate(self) -> None:
        """Hook: the kind's value rules, run after the type check.

        Ranges of floats, registry names and cross-field rules live
        here; canonical spellings are stored with
        ``object.__setattr__``.  Any ``KeyError`` / ``TypeError`` /
        ``ValueError`` raised becomes a :class:`SpecError` naming the
        kind.
        """

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """Plain-data representation, round-trippable via :meth:`from_dict`.

        Includes ``spec`` (the kind) and ``schema_version``.  ``None``
        values are kept for JSON round-trips; TOML authors simply omit
        those keys (TOML has no null).
        """
        data: dict[str, Any] = {
            "spec": self.kind,
            "schema_version": SPEC_SCHEMA_VERSION,
        }
        for f in dataclasses.fields(self):
            data[f.name] = _encode_value(getattr(self, f.name))
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Spec":
        """Decode and validate a spec document.

        Called on :class:`Spec` itself, the document's ``spec`` key picks
        the concrete class; called on a concrete class, a present ``spec``
        key must match.  Raises :class:`SpecError` for unknown kinds,
        future schema versions, unknown keys and invalid field values.
        """
        if not isinstance(data, Mapping):
            raise SpecError(f"spec document must be a mapping, got {type(data).__name__}")
        fields = dict(data)
        kind = fields.pop("spec", None)
        if cls is Spec:
            if kind is None:
                raise SpecError(
                    "spec document must name its kind under the 'spec' key"
                    f" (one of: {', '.join(spec_kinds())})"
                )
            cls = spec_class_for(kind)
        elif kind is not None and kind != cls.kind:
            raise SpecError(f"expected a {cls.kind!r} spec, got {kind!r}")
        version = fields.pop("schema_version", SPEC_SCHEMA_VERSION)
        if isinstance(version, bool) or not isinstance(version, int):
            raise SpecError(f"schema_version must be an integer, got {version!r}")
        if version > SPEC_SCHEMA_VERSION:
            raise SpecError(
                f"spec schema_version {version} is newer than this library"
                f" supports ({SPEC_SCHEMA_VERSION}); upgrade repro to read it"
            )
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(fields) - known)
        if unknown:
            raise SpecError(
                f"unknown key(s) in {cls.kind!r} spec: {', '.join(map(repr, unknown))};"
                f" valid keys: {', '.join(sorted(known))}"
            )
        return cls(**cls._decode_fields(fields))

    @classmethod
    def _decode_fields(cls, fields: dict[str, Any]) -> dict[str, Any]:
        """Hook: map document fields to constructor arguments.

        The default coerces JSON/TOML arrays to tuples for tuple-typed
        fields; :class:`~repro.specs.SweepSpec` overrides it to decode
        its nested base spec.
        """
        return {
            name: coerce_field_value(cls, name, value)
            for name, value in fields.items()
        }

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """Canonical identity hash of the declared experiment.

        Computed over :meth:`_fingerprint_payload` — resolved,
        result-relevant fields only — so presets vs explicit numbers,
        alias vs canonical policy spellings, and execution knobs
        (workers, cache) can never fork the identity.
        """
        return spec_fingerprint(self.kind, self._fingerprint_payload())

    def _fingerprint_payload(self) -> dict[str, Any]:
        """Hook: the fields that define the experiment's identity.

        Default: every declared field, encoded as in :meth:`to_dict`.
        Concrete specs override this to resolve presets and drop
        execution knobs.
        """
        return {
            f.name: _encode_value(getattr(self, f.name))
            for f in dataclasses.fields(self)
        }


@functools.cache
def field_hints(cls: type[Spec]) -> dict[str, Any]:
    """The resolved annotations of *cls*, computed once per class."""
    return typing.get_type_hints(cls)


@functools.cache
def _checked_fields(cls: type[Spec]) -> tuple[tuple, ...]:
    """``(name, type, None allowed, "min", wording)`` of each field of *cls*
    whose type :data:`_WANTED` declares."""
    out = []
    for f in dataclasses.fields(cls):
        hint = field_hints(cls)[f.name]
        args = typing.get_args(hint)
        optional = type(None) in args
        if optional and len(args) == 2:
            (hint,) = (arg for arg in args if arg is not type(None))
        if hint in (bool, int, float, str, tuple[str, ...]):
            minimum = f.metadata.get("min")
            out.append((f.name, hint, optional, minimum, _WANTED[hint, minimum]))
    return tuple(out)


def _fits(value: Any, wanted: type, optional: bool, minimum: int | None) -> bool:
    """Whether *value* is of the declared type (bool is no number, and a
    string is no list of strings)."""
    if value is None:
        return optional
    if wanted is str:
        return isinstance(value, str)
    if wanted == tuple[str, ...]:
        return isinstance(value, (tuple, list)) and all(
            isinstance(v, str) for v in value
        )
    if wanted is bool or isinstance(value, bool):
        return wanted is bool and isinstance(value, bool)
    if wanted is int:
        return isinstance(value, int) and value >= minimum
    return isinstance(value, (int, float)) and math.isfinite(value)


def resolve_tau(tau: float | None) -> float:
    """The bounded-slowdown threshold of a spec: ``None`` is the paper's
    10 s (:data:`repro.sim.metrics.DEFAULT_TAU`), else it must be > 0."""
    from repro.sim.metrics import DEFAULT_TAU

    if tau is None:
        return float(DEFAULT_TAU)
    if not tau > 0:
        raise ValueError(f"tau must be > 0, got {tau!r}")
    return tau


def check_scale_name(scale: str | None) -> None:
    """Validate a scale-preset name against the registry (lazy import)."""
    from repro.experiments.scale import SCALES

    if scale is not None and scale not in SCALES:
        raise ValueError(
            f"unknown scale {scale!r}; available: {', '.join(sorted(SCALES))}"
        )


def check_trace_name(trace: str) -> None:
    """Validate a synthetic-trace name against the registry (lazy import)."""
    from repro.workloads.traces import trace_names

    if trace not in trace_names():
        raise ValueError(
            f"unknown synthetic trace {trace!r}; available: "
            + ", ".join(trace_names())
        )


def check_trace_ref(ref: str | None) -> None:
    """Validate a ``pwa:<name>`` trace reference against the acquisition
    registry (lazy import); plain paths and ``None`` pass through."""
    from repro.traces import get_source, is_trace_ref, trace_ref_name

    if ref is not None and is_trace_ref(ref):
        get_source(trace_ref_name(ref))


def trace_ref_identity(ref: str) -> object:
    """Fingerprint spelling of a trace argument.

    A ``pwa:<name>`` reference enters identities as the registry's
    pinned *content hash* — never the URL or the resolved cache path —
    so fingerprints are independent of where the bytes are cached or
    mirrored from; plain file paths enter as themselves (their content
    is additionally hashed at the cache-key layer).
    """
    from repro.traces import get_source, is_trace_ref, trace_ref_name

    if is_trace_ref(ref):
        return get_source(trace_ref_name(ref)).content_id()
    return ref


def _encode_value(value: Any) -> Any:
    """Recursively map spec values onto plain JSON-able data."""
    if isinstance(value, Spec):
        return value.to_dict()
    if isinstance(value, tuple):
        return [_encode_value(v) for v in value]
    if isinstance(value, dict):
        return {k: _encode_value(v) for k, v in value.items()}
    return value


def coerce_field_value(cls: type[Spec], name: str, value: Any) -> Any:
    """Coerce a document value for field *name* of *cls* (lists→tuples).

    TOML and JSON only have arrays; tuple-typed spec fields accept them
    and store tuples so specs stay hashable and order-stable.
    """
    for f in dataclasses.fields(cls):
        if f.name == name and isinstance(value, list) and "tuple" in str(f.type):
            return tuple(value)
    return value


def load_spec(path: str | Path) -> Spec:
    """Load a spec from a TOML or JSON document.

    ``.toml`` and ``.json`` suffixes select the parser; any other suffix
    tries TOML first, then JSON.  The document's top-level ``spec`` key
    names the kind.  All failures raise :class:`SpecError` with the path
    in the message.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise SpecError(f"cannot read spec file {path}: {exc}") from exc
    try:
        data = _parse_document(path.suffix.lower(), raw)
    except SpecError as exc:
        raise SpecError(f"{path}: {exc}") from None
    try:
        return Spec.from_dict(data)
    except SpecError as exc:
        raise SpecError(f"{path}: {exc}") from None


def _parse_document(suffix: str, raw: bytes) -> Mapping[str, Any]:
    """Parse raw bytes as TOML and/or JSON depending on *suffix*."""
    import tomllib

    def parse_toml(text: bytes) -> Mapping[str, Any]:
        return tomllib.loads(text.decode("utf-8"))

    def parse_json(text: bytes) -> Mapping[str, Any]:
        data = json.loads(text.decode("utf-8"))
        if not isinstance(data, Mapping):
            raise ValueError("top-level JSON value must be an object")
        return data

    if suffix == ".toml":
        parsers = [("TOML", parse_toml)]
    elif suffix == ".json":
        parsers = [("JSON", parse_json)]
    else:
        parsers = [("TOML", parse_toml), ("JSON", parse_json)]
    errors = []
    for name, parse in parsers:
        try:
            return parse(raw)
        except (ValueError, tomllib.TOMLDecodeError) as exc:
            errors.append(f"{name}: {exc}")
    raise SpecError("not a valid spec document (" + "; ".join(errors) + ")")
