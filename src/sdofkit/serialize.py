"""JSON encoding of matrices, channel sets, precoders, and scenarios.

Complex scalars are serialized as two-element ``[re, im]`` arrays and
matrices as ``{"rows": R, "data": [col, col, ...]}`` where each column is
a list of ``[re, im]`` entries (vectors are columns throughout the
package; the explicit row count keeps zero-column matrices unambiguous).
Input documents are validated on load against the schemas shipped under
``sdofkit/schemas`` by :func:`validate_document`, which implements the few
JSON Schema keywords those schemas use, and every number read from them
must be finite (``NaN`` and ``Infinity`` too).
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
from importlib import resources

import numpy as np

from .chansim import Geometry, Scenario, Sweep
from .errors import SchemaViolation
from .precoder import _CHANNELS, ChannelSet, PrecoderPair
from .region import AntennaConfig, SdofPoint

__all__ = [
    "matrix_to_json",
    "matrix_from_json",
    "channels_to_json",
    "channels_from_json",
    "precoder_to_json",
    "precoder_from_json",
    "scenario_from_json",
    "validate_document",
    "load_json",
]

def matrix_to_json(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=np.complex128)
    # (cols, rows, 2): each column a list of [re, im] entries
    pairs = np.stack([m.real, m.imag], axis=-1).transpose(1, 0, 2)
    return {"rows": int(m.shape[0]), "data": pairs.tolist()}


def matrix_from_json(obj: dict, name: str = "matrix") -> np.ndarray:
    rows = int(obj["rows"])
    cols = obj["data"]
    for j, col in enumerate(cols):
        if len(col) != rows:
            raise SchemaViolation(f"{name}: column {j} has {len(col)} entries, expected {rows}")
    try:
        pairs = np.array(cols, dtype=float).reshape(len(cols), rows, 2)
    except OverflowError as exc:  # a JSON integer beyond the float range
        raise SchemaViolation(f"{name}: {exc}") from exc
    if not np.isfinite(pairs).all():
        raise SchemaViolation(f"{name}: every entry must be a finite number")
    out = np.empty((rows, len(cols)), dtype=np.complex128)
    # filled part by part: adding a complex product would turn -0.0 into 0.0
    out.real = pairs[:, :, 0].T
    out.imag = pairs[:, :, 1].T
    return out


def channels_to_json(ch: ChannelSet) -> dict:
    doc = {name: matrix_to_json(getattr(ch, name)) for name in _CHANNELS}
    doc["antennas"] = dataclasses.asdict(ch.config)
    return doc


def channels_from_json(obj: dict) -> ChannelSet:
    """Parse a channel set; an ``antennas`` field must match the matrix shapes."""
    validate_document(obj, "channel_set")
    ch = ChannelSet(**{name: matrix_from_json(obj[name], name) for name in _CHANNELS})
    if "antennas" in obj:
        declared = _antennas_from_json(obj["antennas"])
        if declared != ch.config:
            raise SchemaViolation(
                f"channel_set: antennas {declared.as_tuple()} do not match "
                f"the matrix shapes {ch.config.as_tuple()}"
            )
    return ch


def precoder_to_json(pair: PrecoderPair) -> dict:
    return {
        "v": matrix_to_json(pair.v),
        "w": matrix_to_json(pair.w),
        "power": None if pair.power is None else float(pair.power),
    }


def precoder_from_json(obj: dict) -> PrecoderPair:
    validate_document(obj, "precoder_pair")
    return PrecoderPair(
        v=matrix_from_json(obj["v"], "v"),
        w=matrix_from_json(obj["w"], "w"),
        power=None if obj.get("power") is None else _finite(obj["power"], "power"),
    )


def _antennas_from_json(obj: dict) -> AntennaConfig:
    return AntennaConfig(**{f.name: int(obj[f.name]) for f in dataclasses.fields(AntennaConfig)})


def _finite(value, field: str) -> float:
    """``value`` as a finite float, else malformed input naming ``field``."""
    try:
        out = float(value)
    except OverflowError:  # an integer beyond the float range
        out = math.inf
    if not math.isfinite(out):
        raise SchemaViolation(f"{field} must be a finite number")
    return out


def _present(obj: dict, coercions: dict) -> dict:
    """The coerced values of the keys ``obj`` sets; absent keys keep the
    defaults of the dataclass they are passed to."""
    return {key: _finite(obj[key], key) if coerce is float else coerce(obj[key])
            for key, coerce in coercions.items() if key in obj}


_GEOMETRY_COERCIONS = {"ring_radius": float, "resample_rings": bool}
_SCENARIO_COERCIONS = {
    "pathloss_exponent": float,
    "noise_power_dbm": float,
    "power_dbm": float,
    "uncertainty_alpha": float,
    "trials": int,
    "seed": int,
}


def scenario_from_json(obj: dict) -> tuple[Scenario, SdofPoint]:
    """Parse a scenario document; the simulation target is required.

    Absent optional fields take the ``Scenario`` and ``Geometry`` defaults.
    """
    validate_document(obj, "scenario")
    geo = None
    if obj.get("geometry") is not None:
        g = obj["geometry"]
        geo = Geometry(
            s1=tuple(_finite(x, "s1") for x in g["s1"]),
            s2=tuple(_finite(x, "s2") for x in g["s2"]),
            **_present(g, _GEOMETRY_COERCIONS),
        )
    sweep = None
    if obj.get("sweep") is not None:
        sweep = Sweep(
            variable=obj["sweep"]["variable"],
            values=tuple(_finite(v, "sweep value") for v in obj["sweep"]["values"]),
        )
    try:
        scenario = Scenario(
            config=_antennas_from_json(obj["antennas"]),
            geometry=geo,
            sweep=sweep,
            **_present(obj, _SCENARIO_COERCIONS),
        )
    except ValueError as exc:
        raise SchemaViolation(str(exc)) from exc
    target = SdofPoint(int(obj["target"][0]), int(obj["target"][1]))
    return scenario, target


@functools.cache  # parsed once per process; no caller modifies it
def _schema(name: str) -> dict:
    text = resources.files("sdofkit.schemas").joinpath(f"{name}.schema.json").read_text()
    return json.loads(text)


def validate_document(obj, name: str) -> None:
    """Validate a JSON document against a shipped schema.

    Of the errors found, the one reported is the one ``jsonschema`` would
    report, in its words: the least deep, then the one whose path sorts last.
    An error below the root names its field as a JSON Pointer, as in
    ``scenario: -1 is less than the minimum of 0 (at /seed)``.
    """
    schema = _schema(name)
    error = max(_errors(obj, schema, schema, ()), key=lambda e: (-len(e[0]), e[0]), default=None)
    if error is not None:
        # no property name in the shipped schemas holds a "~" or "/" to escape
        at = "".join(f"/{p}" for p in error[0])
        raise SchemaViolation(f"{name}: {error[1]}" + (f" (at {at})" if at else ""))


# The JSON Schema (2020-12) keywords that _errors implements, and the
# annotations it ignores; the shipped schemas use no others.
_KEYWORDS = frozenset({"type", "properties", "required", "items", "minItems", "maxItems",
                       "minimum", "maximum", "exclusiveMinimum", "const", "enum", "$ref"})
_ANNOTATIONS = frozenset({"$schema", "$id", "title", "$defs"})

_JSON_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool,
               "null": type(None)}


def _is_type(value, name: str) -> bool:
    """JSON Schema's types: a bool is no number, and 1.0 is an integer."""
    if name not in ("number", "integer"):
        return isinstance(value, _JSON_TYPES[name])
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return name == "number" or isinstance(value, int) or value.is_integer()


def _errors(value, schema: dict, root: dict, path: tuple):
    """Yield ``(path, message)`` for each keyword of ``schema`` that
    ``value`` fails; object, array and numeric keywords apply only to
    values of their type."""
    for key, arg in schema.items():
        if key == "$ref":  # local, "#/$defs/<name>"
            yield from _errors(value, root["$defs"][arg.removeprefix("#/$defs/")], root, path)
        elif key == "type":
            types = [arg] if isinstance(arg, str) else arg
            if not any(_is_type(value, t) for t in types):
                yield path, f"{value!r} is not of type {', '.join(map(repr, types))}"
        elif key == "const":
            if value != arg:
                yield path, f"{arg!r} was expected"
        elif key == "enum":
            if value not in arg:
                yield path, f"{value!r} is not one of {arg!r}"
        elif isinstance(value, dict):
            if key == "required":
                yield from ((path, f"{k!r} is a required property") for k in arg if k not in value)
            elif key == "properties":
                for k, sub in arg.items():
                    if k in value:
                        yield from _errors(value[k], sub, root, path + (k,))
        elif isinstance(value, list):
            if key == "items":
                for i, item in enumerate(value):
                    yield from _errors(item, arg, root, path + (i,))
            elif key == "minItems" and len(value) < arg:
                yield path, f"{value!r} {'should be non-empty' if arg == 1 else 'is too short'}"
            elif key == "maxItems" and len(value) > arg:
                yield path, f"{value!r} {'is expected to be empty' if arg == 0 else 'is too long'}"
        elif _is_type(value, "number"):
            if key == "minimum" and value < arg:
                yield path, f"{value!r} is less than the minimum of {arg!r}"
            elif key == "maximum" and value > arg:
                yield path, f"{value!r} is greater than the maximum of {arg!r}"
            elif key == "exclusiveMinimum" and value <= arg:
                yield path, f"{value!r} is less than or equal to the minimum of {arg!r}"


def _json_int(text: str, path) -> int:
    try:
        return int(text)
    except ValueError as exc:  # past Python's limit on integer digits
        raise SchemaViolation(f"{path}: an integer of {len(text)} digits is too long") from exc


def load_json(path) -> dict:
    with open(path) as fh:
        try:
            return json.load(fh, parse_int=lambda text: _json_int(text, path),
                             parse_constant=lambda name: _finite(name, f"{path}: {name}"))
        except json.JSONDecodeError as exc:
            raise SchemaViolation(f"{path}: invalid JSON ({exc})") from exc
