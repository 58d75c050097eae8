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

Spec modules import only the standard library and this package at module
scope; anything heavier (policy registry, scale presets, matrix config)
is imported lazily inside validation and conversion methods, which keeps
``repro.specs`` importable from every layer without cycles.
"""

from __future__ import annotations

import dataclasses
import json
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
        try:
            return cls(**cls._decode_fields(fields))
        except SpecError:
            raise
        except (TypeError, ValueError) as exc:
            raise SpecError(f"invalid {cls.kind!r} spec: {exc}") from exc

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
