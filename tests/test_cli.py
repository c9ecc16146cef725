import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sdofkit import cli, serialize
from sdofkit.chansim import Geometry, Scenario, Sweep, gaussian_channels
from sdofkit.errors import SchemaViolation
from sdofkit.precoder import PrecoderPair
from sdofkit.region import AntennaConfig


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


def run_python(code: str, **kwargs) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports this checkout's
    sdofkit; the pytest process has already imported SciPy."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.pop("PYTHONUNBUFFERED", None)  # stdout to a pipe is block-buffered
    return subprocess.run([sys.executable, "-c", code], env=env, timeout=120, **kwargs)


class TestRegionCommand:
    def test_worked_example(self, capsys):
        code, doc = run_json(capsys, "region", "--antennas", "6,6,5,4,5")
        assert code == 0
        assert doc["strict_boundary"] == [[3, 3], [2, 4]]
        assert doc["e1"] == [3, 3] and doc["e2"] == [2, 4]
        serialize.validate_document(doc, "region_result")

    def test_balanced_small_network(self, capsys):
        code, doc = run_json(capsys, "region", "--antennas", "4,2,4,2,4")
        assert code == 0
        assert [1, 1] in doc["strict_boundary"]

    def test_degenerate_network(self, capsys):
        code, doc = run_json(capsys, "region", "--antennas", "1,1,1,1,1")
        assert code == 0
        assert doc["su1"] == 0 and doc["su2"] == 1

    def test_csv_format(self, capsys):
        code, out = run_cli(capsys, "region", "--antennas", "6,6,5,4,5", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "d1,d2,kind"
        assert "3,3,strict" in lines and "2,4,e2" in lines

    def test_malformed_antennas(self, capsys):
        code, doc = run_json(capsys, "region", "--antennas", "6,6,5")
        assert code == 2
        assert doc["status"] == "error"


class TestConstructCommand:
    def test_round_trip(self, capsys, tmp_path):
        bundle = tmp_path / "bundle.json"
        code, doc = run_json(
            capsys, "construct", "--antennas", "6,6,5,4,5", "--target", "2,4",
            "--seed", "7", "--out", str(bundle),
        )
        assert code == 0
        assert doc["sdof"] == [2, 4]
        assert doc["seed"] == 7
        serialize.validate_document(doc, "construct_result")

        code, vdoc = run_json(
            capsys, "verify", "--channels", str(bundle), "--precoder", str(bundle)
        )
        assert code == 0
        assert vdoc["sdof"] == doc["sdof"]
        assert vdoc["membership"] == {"in_i": True, "in_ibar": True, "in_ihat": True}
        assert abs(vdoc["slopes"][0] - 2) <= 0.1
        assert abs(vdoc["slopes"][1] - 4) <= 0.1
        serialize.validate_document(vdoc, "verify_result")

    def test_single_user_public_target(self, capsys):
        code, doc = run_json(
            capsys, "construct", "--antennas", "6,6,5,4,5", "--target", "0,4", "--seed", "1"
        )
        assert code == 0
        assert doc["sdof"] == [0, 4]

    def test_infeasible_exit_code(self, capsys):
        code, doc = run_json(
            capsys, "construct", "--antennas", "6,6,5,4,5", "--target", "9,9"
        )
        assert code == 3
        assert doc["error"] == "target_infeasible"

    def test_seed_echoed_when_omitted(self, capsys):
        code, doc = run_json(
            capsys, "construct", "--antennas", "4,2,4,2,4", "--target", "1,1"
        )
        assert code == 0
        assert isinstance(doc["seed"], int)

    def test_deterministic_given_seed(self, capsys, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            run_json(capsys, "construct", "--antennas", "4,2,4,2,4", "--target", "1,1",
                     "--seed", "42", "--out", str(path))
            outs.append(json.loads(path.read_text()))
        assert outs[0]["channels"] == outs[1]["channels"]
        assert outs[0]["precoder"] == outs[1]["precoder"]

    @pytest.mark.parametrize("dbm", ["4000", "nan"])
    def test_unusable_power_exits_2(self, capsys, dbm):
        code, doc = run_json(capsys, "construct", "--antennas", "6,6,5,4,5",
                             "--target", "2,4", "--seed", "7", "--power-dbm", dbm)
        assert code == 2
        assert doc["error"] == "bad_input"

    def test_lapack_failure_exits_4(self, capsys, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", no_convergence)
        code, doc = run_json(capsys, "construct", "--antennas", "6,6,5,4,5",
                             "--target", "2,4", "--seed", "7")
        assert code == 4
        assert doc["error"] == "construction_failed"


class TestChannelAntennas:
    # a bundle whose channel set declares antennas its matrices do not have
    @pytest.mark.parametrize("command", ["verify", "construct"])
    def test_disagreeing_antennas_exit_2(self, capsys, tmp_path, command):
        bundle = tmp_path / "bundle.json"
        run_json(capsys, "construct", "--antennas", "6,6,5,4,5", "--target", "2,4",
                 "--seed", "7", "--out", str(bundle))
        doc = json.loads(bundle.read_text())
        doc["channels"]["antennas"] = {"ns1": 2, "ns2": 2, "nd1": 1, "nd2": 1, "ne": 9}
        bundle.write_text(json.dumps(doc))
        argv = {
            "verify": ["verify", "--channels", str(bundle), "--precoder", str(bundle)],
            "construct": ["construct", "--antennas", "6,6,5,4,5", "--target", "2,4",
                          "--channels", str(bundle)],
        }[command]
        code, out = run_json(capsys, *argv)
        assert code == 2
        assert out["error"] == "bad_input"
        assert "antennas (2, 2, 1, 1, 9)" in out["message"]


class TestMalformedFiles:
    @pytest.mark.parametrize("value", ["5", "null", "true"])
    @pytest.mark.parametrize("command", ["verify", "construct"])
    def test_non_object_document_exits_2(self, capsys, tmp_path, command, value):
        path = tmp_path / "value.json"
        path.write_text(value)
        argv = {
            "verify": ["verify", "--channels", str(path), "--precoder", str(path)],
            "construct": ["construct", "--antennas", "6,6,5,4,5", "--target", "2,4",
                          "--channels", str(path)],
        }[command]
        code, out = run_json(capsys, *argv)
        assert code == 2
        assert out["error"] == "bad_input"

    def test_integer_beyond_float_range_exits_2(self, capsys, tmp_path):
        bundle = tmp_path / "bundle.json"
        run_json(capsys, "construct", "--antennas", "6,6,5,4,5", "--target", "2,4",
                 "--seed", "7", "--out", str(bundle))
        doc = json.loads(bundle.read_text())
        doc["channels"]["h11"]["data"][0][0][0] = 10**400
        bundle.write_text(json.dumps(doc))
        code, out = run_json(capsys, "verify", "--channels", str(bundle),
                             "--precoder", str(bundle))
        assert code == 2
        assert out["error"] == "bad_input"
        assert out["message"].startswith("h11: ")


class TestVerifyCommand:
    def test_dimension_mismatch_exits_2(self, capsys, tmp_path):
        rng = np.random.default_rng(0)
        ch = gaussian_channels(AntennaConfig(4, 2, 4, 2, 4), rng)
        wrong = PrecoderPair(v=np.zeros((5, 1), dtype=complex),
                             w=np.zeros((2, 1), dtype=complex), power=1.0)
        chan_path = tmp_path / "ch.json"
        prec_path = tmp_path / "pc.json"
        chan_path.write_text(json.dumps(serialize.channels_to_json(ch)))
        prec_path.write_text(json.dumps(serialize.precoder_to_json(wrong)))
        code, doc = run_json(capsys, "verify", "--channels", str(chan_path),
                             "--precoder", str(prec_path))
        assert code == 2
        assert doc["error"] == "bad_input"

    @pytest.mark.parametrize("grid", ["1e6,1e12,1e12", "1e6,nan,1e12", "1e6,1e12,inf"])
    def test_bad_p_grid_exits_2(self, capsys, tmp_path, grid):
        bundle = tmp_path / "bundle.json"
        run_json(capsys, "construct", "--antennas", "4,2,4,2,4", "--target", "1,1",
                 "--seed", "7", "--out", str(bundle))
        code, doc = run_json(capsys, "verify", "--channels", str(bundle),
                             "--precoder", str(bundle), "--p-grid", grid)
        assert code == 2
        assert doc["error"] == "bad_input"

    def test_schema_violation_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"v": 3}')
        code, doc = run_json(capsys, "verify", "--channels", str(bad), "--precoder", str(bad))
        assert code == 2


class TestSimulateCommand:
    def test_small_sweep(self, capsys, tmp_path):
        scenario = {
            "antennas": {"ns1": 4, "ns2": 2, "nd1": 4, "nd2": 2, "ne": 4},
            "target": [1, 1],
            "geometry": {"s1": [150.0, 0.0], "s2": [0.0, 0.0], "ring_radius": 10.0},
            "trials": 15,
            "seed": 3,
            "sweep": {"variable": "s1_s2_distance", "values": [150, 50]},
        }
        spath = tmp_path / "scenario.json"
        spath.write_text(json.dumps(scenario))
        out_csv = tmp_path / "curve.csv"
        code, doc = run_json(capsys, "simulate", "--scenario", str(spath),
                             "--out", str(out_csv))
        assert code == 0
        serialize.validate_document(doc, "simulate_result")
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0] == "x,mean_rs1,se_rs1,mean_rs2,se_rs2,failures"
        assert len(lines) == 3

    def test_missing_target_exits_2(self, capsys, tmp_path):
        spath = tmp_path / "scenario.json"
        spath.write_text(json.dumps({"antennas": {"ns1": 1, "ns2": 1, "nd1": 1,
                                                  "nd2": 1, "ne": 1}}))
        code, doc = run_json(capsys, "simulate", "--scenario", str(spath),
                             "--out", str(tmp_path / "x.csv"))
        assert code == 2


    @pytest.mark.parametrize("setting", [
        {"power_dbm": 4000},
        {"sweep": {"variable": "power_dbm", "values": [0, 5000]}},
    ], ids=["power_dbm", "sweep"])
    def test_unusable_power_exits_2(self, capsys, tmp_path, setting):
        scenario = {
            "antennas": {"ns1": 4, "ns2": 2, "nd1": 4, "nd2": 2, "ne": 4},
            "target": [1, 1],
            "trials": 2,
            **setting,
        }
        spath = tmp_path / "scenario.json"
        spath.write_text(json.dumps(scenario))
        code, doc = run_json(capsys, "simulate", "--scenario", str(spath),
                             "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert doc["error"] == "bad_input"


class TestSerialization:
    def test_matrix_round_trip(self, rng):
        m = (rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3)))
        doc = serialize.matrix_to_json(m)
        assert doc["rows"] == 4 and len(doc["data"]) == 3
        back = serialize.matrix_from_json(doc)
        assert np.allclose(back, m)

    def test_empty_matrix_round_trip(self):
        doc = serialize.matrix_to_json(np.zeros((5, 0), dtype=complex))
        back = serialize.matrix_from_json(doc)
        assert back.shape == (5, 0)

    @pytest.mark.parametrize("shape", [(4, 3), (1, 1), (5, 0), (0, 3), (0, 0)])
    def test_matrix_round_trip_is_bitwise(self, rng, shape):
        m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        if m.size:
            m.real[0, 0] = -0.0
            m.imag[-1, -1] = -0.0
        doc = serialize.matrix_to_json(m)
        # the documented layout, written out entry by entry
        assert doc == {"rows": shape[0], "data": [[[z.real, z.imag] for z in m[:, j]]
                                                  for j in range(shape[1])]}
        back = serialize.matrix_from_json(json.loads(json.dumps(doc)))
        assert back.dtype == np.complex128 and back.shape == m.shape
        assert back.tobytes() == m.tobytes()

    def test_ragged_column_rejected(self):
        doc = {"rows": 2, "data": [[[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0]]]}
        with pytest.raises(SchemaViolation, match="column 1 has 1 entries"):
            serialize.matrix_from_json(doc, "h11")

    def test_minimal_scenario_takes_dataclass_defaults(self):
        antennas = {"ns1": 4, "ns2": 2, "nd1": 4, "nd2": 2, "ne": 4}
        scenario, target = serialize.scenario_from_json({"antennas": antennas, "target": [1, 1]})
        assert scenario == Scenario(config=AntennaConfig(4, 2, 4, 2, 4))
        assert target == (1, 1)
        scenario, _ = serialize.scenario_from_json(
            {"antennas": antennas, "target": [1, 1], "geometry": {"s1": [9, 0], "s2": [0, 0]}}
        )
        assert scenario.geometry == Geometry(s1=(9.0, 0.0), s2=(0.0, 0.0))

    def test_full_scenario_sets_every_field(self):
        doc = {
            "antennas": {"ns1": 4, "ns2": 2, "nd1": 4, "nd2": 2, "ne": 4},
            "target": [1, 1],
            "geometry": {"s1": [30, 1], "s2": [0, 2], "ring_radius": 5,
                         "resample_rings": False},
            "pathloss_exponent": 3,
            "noise_power_dbm": -50,
            "power_dbm": 5,
            "uncertainty_alpha": 0.25,
            "trials": 7,
            "seed": 13,
            "sweep": {"variable": "power_dbm", "values": [0, 10]},
        }
        scenario, _ = serialize.scenario_from_json(doc)
        assert scenario == Scenario(
            config=AntennaConfig(4, 2, 4, 2, 4),
            geometry=Geometry(s1=(30.0, 1.0), s2=(0.0, 2.0), ring_radius=5.0,
                              resample_rings=False),
            pathloss_exponent=3.0,
            noise_power_dbm=-50.0,
            power_dbm=5.0,
            uncertainty_alpha=0.25,
            trials=7,
            seed=13,
            sweep=Sweep("power_dbm", (0.0, 10.0)),
        )
        # every field is off its default, so none was left to the dataclass
        defaults = Scenario(config=scenario.config)
        assert all(getattr(scenario, name) != getattr(defaults, name)
                   for name in Scenario.__dataclass_fields__ if name != "config")
        assert scenario.geometry.resample_rings is False
        assert isinstance(scenario.trials, int) and isinstance(scenario.pathloss_exponent, float)

    def test_channel_round_trip(self, rng):
        ch = gaussian_channels(AntennaConfig(3, 2, 2, 2, 2), rng)
        doc = serialize.channels_to_json(ch)
        serialize.validate_document(doc, "channel_set")
        back = serialize.channels_from_json(doc)
        for name in ("h11", "h12", "h21", "h22", "g1", "g2"):
            assert np.allclose(getattr(back, name), getattr(ch, name))


class TestClosedStdout:
    # the JSON result, and the JSON error of a malformed argument
    @pytest.mark.parametrize("antennas", ["6,6,5,4,5", "6,6"])
    def test_exits_1_without_traceback(self, antennas):
        # a pipe whose read end is closed: every write fails with EPIPE
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = run_python(
                "import sys; from sdofkit.cli import main; "
                f"sys.exit(main(['region', '--antennas', '{antennas}']))",
                stdout=write_end, stderr=subprocess.PIPE,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert proc.stderr == b""


# Prints, after each step, whether SciPy's linalg module has been loaded.
_SCIPY_PROBE = """
import contextlib, io, json, sys
loaded = {}
import sdofkit
loaded["import sdofkit"] = "scipy.linalg" in sys.modules
import sdofkit.cli
loaded["import sdofkit.cli"] = "scipy.linalg" in sys.modules
for argv in ARGVS:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = sdofkit.cli.main(argv)
    loaded[argv[0]] = "scipy.linalg" in sys.modules
    loaded[argv[0] + " output"] = [code, json.loads(out.getvalue())]
print(json.dumps(loaded))
"""


def scipy_probe(*argvs):
    proc = run_python(_SCIPY_PROBE.replace("ARGVS", repr(list(argvs))),
                      capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestImportCost:
    """SciPy serves only the cosine-sine step of a GSVD with a shared
    block, so commands that compute none never load it."""

    def test_region_and_verify_load_no_scipy(self, capsys, tmp_path):
        bundle = str(tmp_path / "bundle.json")
        run_json(capsys, "construct", "--antennas", "6,6,5,4,5", "--target", "2,4",
                 "--seed", "7", "--out", bundle)
        loaded = scipy_probe(["region", "--antennas", "6,6,5,4,5"],
                             ["verify", "--channels", bundle, "--precoder", bundle])
        assert loaded["region output"][0] == 0
        assert loaded["verify output"][0] == 0
        assert loaded["verify output"][1]["sdof"] == [2, 4]
        steps = ["import sdofkit", "import sdofkit.cli", "region", "verify"]
        assert {step: loaded[step] for step in steps} == dict.fromkeys(steps, False)

    def test_construct_loads_scipy_at_its_gsvd(self):
        loaded = scipy_probe(["construct", "--antennas", "6,6,5,4,5", "--target", "2,4",
                              "--seed", "7"])
        assert loaded["import sdofkit.cli"] is False
        assert loaded["construct"] is True
        code, doc = loaded["construct output"]
        assert code == 0
        assert doc["sdof"] == [2, 4]
