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
    return {
        "rows": int(m.shape[0]),
        "data": [[[float(z.real), float(z.imag)] for z in m[:, j]] for j in range(m.shape[1])],
    }


def matrix_from_json(obj: dict, name: str = "matrix") -> np.ndarray:
    rows = int(obj["rows"])
    cols = obj["data"]
    out = np.zeros((rows, len(cols)), dtype=np.complex128)
    for j, col in enumerate(cols):
        if len(col) != rows:
            raise SchemaViolation(f"{name}: column {j} has {len(col)} entries, expected {rows}")
        for i, (re, im) in enumerate(col):
            out[i, j] = complex(re, im)
    return out


def channels_to_json(ch: ChannelSet) -> dict:
    doc = {name: matrix_to_json(getattr(ch, name)) for name in _CHANNEL_FIELDS}
    doc["antennas"] = _antennas_to_json(ch.config)
    return doc


def channels_from_json(obj: dict) -> ChannelSet:
    validate_document(obj, "channel_set")
    return ChannelSet(**{name: matrix_from_json(obj[name], name) for name in _CHANNEL_FIELDS})


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


def scenario_from_json(obj: dict) -> tuple[Scenario, SdofPoint]:
    """Parse a scenario document; the simulation target is required."""
    validate_document(obj, "scenario")
    geo = None
    if obj.get("geometry") is not None:
        g = obj["geometry"]
        geo = Geometry(
            s1=(float(g["s1"][0]), float(g["s1"][1])),
            s2=(float(g["s2"][0]), float(g["s2"][1])),
            ring_radius=float(g.get("ring_radius", 10.0)),
            resample_rings=bool(g.get("resample_rings", True)),
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
            pathloss_exponent=float(obj.get("pathloss_exponent", 3.5)),
            noise_power_dbm=float(obj.get("noise_power_dbm", -60.0)),
            power_dbm=float(obj.get("power_dbm", 0.0)),
            uncertainty_alpha=float(obj.get("uncertainty_alpha", 0.0)),
            trials=int(obj.get("trials", 1000)),
            seed=int(obj.get("seed", 0)),
            sweep=sweep,
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
