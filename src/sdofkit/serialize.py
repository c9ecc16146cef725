"""JSON encoding of matrices, channel sets, precoders, and scenarios.

Complex scalars are serialized as two-element ``[re, im]`` arrays and
matrices as ``{"rows": R, "data": [col, col, ...]}`` where each column is
a list of ``[re, im]`` entries (vectors are columns throughout the
package; the explicit row count keeps zero-column matrices unambiguous).
Documents are validated against the schemas shipped under
``sdofkit/schemas`` on load.
"""

from __future__ import annotations

import json
from importlib import resources

import jsonschema
import numpy as np

from .chansim import Geometry, Scenario, Sweep
from .errors import SchemaViolation
from .precoder import ChannelSet, PrecoderPair
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

_CHANNEL_FIELDS = ("h11", "h12", "h21", "h22", "g1", "g2")


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
    out = np.empty((rows, len(cols)), dtype=np.complex128)
    # filled part by part: adding a complex product would turn -0.0 into 0.0
    out.real = pairs[:, :, 0].T
    out.imag = pairs[:, :, 1].T
    return out


def channels_to_json(ch: ChannelSet) -> dict:
    doc = {name: matrix_to_json(getattr(ch, name)) for name in _CHANNEL_FIELDS}
    doc["antennas"] = _antennas_to_json(ch.config)
    return doc


def channels_from_json(obj: dict) -> ChannelSet:
    """Parse a channel set; an ``antennas`` field must match the matrix shapes."""
    validate_document(obj, "channel_set")
    ch = ChannelSet(**{name: matrix_from_json(obj[name], name) for name in _CHANNEL_FIELDS})
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
        power=None if obj.get("power") is None else float(obj["power"]),
    )


def _antennas_to_json(cfg: AntennaConfig) -> dict:
    return {"ns1": cfg.ns1, "ns2": cfg.ns2, "nd1": cfg.nd1, "nd2": cfg.nd2, "ne": cfg.ne}


def _antennas_from_json(obj: dict) -> AntennaConfig:
    return AntennaConfig(**{k: int(obj[k]) for k in ("ns1", "ns2", "nd1", "nd2", "ne")})


def _present(obj: dict, coercions: dict) -> dict:
    """The coerced values of the keys ``obj`` sets; absent keys keep the
    defaults of the dataclass they are passed to."""
    return {key: coerce(obj[key]) for key, coerce in coercions.items() if key in obj}


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
            s1=(float(g["s1"][0]), float(g["s1"][1])),
            s2=(float(g["s2"][0]), float(g["s2"][1])),
            **_present(g, _GEOMETRY_COERCIONS),
        )
    sweep = None
    if obj.get("sweep") is not None:
        sweep = Sweep(
            variable=obj["sweep"]["variable"],
            values=tuple(float(v) for v in obj["sweep"]["values"]),
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


def _schema(name: str) -> dict:
    text = resources.files("sdofkit.schemas").joinpath(f"{name}.schema.json").read_text()
    return json.loads(text)


def validate_document(obj, name: str) -> None:
    """Validate a JSON document against a shipped schema."""
    try:
        jsonschema.validate(obj, _schema(name))
    except jsonschema.ValidationError as exc:
        raise SchemaViolation(f"{name}: {exc.message}") from exc


def load_json(path) -> dict:
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaViolation(f"{path}: invalid JSON ({exc})") from exc
