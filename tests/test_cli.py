import contextlib
import copy
import dataclasses
import io
import json
import os
import subprocess
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sdofkit import chansim, cli, precoder, serialize
from sdofkit.chansim import Geometry, Scenario, Sweep, gaussian_channels
from sdofkit.errors import SchemaViolation
from sdofkit.precoder import PrecoderPair
from sdofkit.region import AntennaConfig

from conftest import low_rank, run_python


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


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

    def test_drawn_seed_is_32_bit_and_replays(self, capsys, tmp_path):
        code, doc = run_json(capsys, "construct", "--antennas", "4,2,4,2,4", "--target", "1,1",
                             "--out", str(tmp_path / "drawn.json"))
        assert code == 0
        seed = doc["seed"]
        assert type(seed) is int and 0 <= seed < 2**32
        run_json(capsys, "construct", "--antennas", "4,2,4,2,4", "--target", "1,1",
                 "--seed", str(seed), "--out", str(tmp_path / "replayed.json"))
        assert (tmp_path / "replayed.json").read_bytes() == (tmp_path / "drawn.json").read_bytes()

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

    def test_negative_seed_exits_2(self, capsys):
        code, doc = run_json(capsys, "construct", "--antennas", "6,6,5,4,5",
                             "--target", "2,4", "--seed", "-1")
        assert code == 2
        assert doc["error"] == "bad_input"
        assert doc["message"] == "--seed must be a non-negative integer, got -1"

    def test_channels_file_reproduces_bundle(self, capsys, tmp_path):
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        run_json(capsys, "construct", "--antennas", "6,6,5,4,5", "--target", "2,4",
                 "--seed", "7", "--out", str(first))
        code, doc = run_json(capsys, "construct", "--antennas", "6,6,5,4,5", "--target", "2,4",
                             "--channels", str(first), "--out", str(second))
        assert code == 0
        bundle, again = json.loads(first.read_text()), json.loads(second.read_text())
        assert doc["sdof"] == bundle["sdof"] == [2, 4]
        assert again["channels"] == bundle["channels"]
        pairs = [serialize.precoder_from_json(b["precoder"]) for b in (bundle, again)]
        assert pairs[0].v.tobytes() == pairs[1].v.tobytes()
        assert pairs[0].w.tobytes() == pairs[1].w.tobytes()

    def test_antennas_disagreeing_with_channels_file_exit_2(self, capsys, tmp_path):
        bundle = tmp_path / "bundle.json"
        run_json(capsys, "construct", "--antennas", "6,6,5,4,5", "--target", "2,4",
                 "--seed", "7", "--out", str(bundle))
        code, doc = run_json(capsys, "construct", "--antennas", "4,2,4,2,4", "--target", "1,1",
                             "--channels", str(bundle))
        assert code == 2
        assert doc["error"] == "bad_input"
        assert "do not match --antennas (4, 2, 4, 2, 4)" in doc["message"]

    # a rank-2 public channel carries two streams, so neither target fits;
    # (0, 4) takes the same checks as every other target
    @pytest.mark.parametrize("target", ["0,4", "2,4"])
    def test_deficient_channel_exits_4(self, capsys, tmp_path, target):
        rng = np.random.default_rng(3)
        ch = gaussian_channels(AntennaConfig(6, 6, 5, 4, 5), rng)
        ch = dataclasses.replace(ch, h22=low_rank(rng, 4, 6, 2))
        path = tmp_path / "rank2.json"
        path.write_text(json.dumps(serialize.channels_to_json(ch)))
        code, doc = run_json(capsys, "construct", "--antennas", "6,6,5,4,5",
                             "--target", target, "--channels", str(path))
        assert code == 4
        assert doc["error"] == "construction_failed"
        assert doc["message"] == "public streams do not span the target dimensions"

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
    @pytest.mark.parametrize("value", ["5", "null", "true", pytest.param("{", id="not_json")])
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

    # a JSON integer beyond the float range, a float that parses to inf,
    # and a constant that Python's json accepts but JSON lacks
    @pytest.mark.parametrize("power", ["1" + "0" * 400, "1e400", "Infinity"],
                             ids=["integer_beyond_float_range", "1e400", "Infinity"])
    def test_non_finite_power_exits_2(self, capsys, tmp_path, power):
        bundle = tmp_path / "bundle.json"
        run_json(capsys, "construct", "--antennas", "6,6,5,4,5", "--target", "2,4",
                 "--seed", "7", "--out", str(bundle))
        doc = json.loads(bundle.read_text())
        doc["precoder"]["power"] = "POWER"
        bundle.write_text(json.dumps(doc).replace('"POWER"', power))
        code, out = run_json(capsys, "verify", "--channels", str(bundle),
                             "--precoder", str(bundle))
        assert code == 2
        assert out["error"] == "bad_input"
        assert out["message"].endswith(" must be a finite number")

    @pytest.mark.parametrize("setting, field", [
        ('"power_dbm": 1' + "0" * 400, "power_dbm"),
        ('"uncertainty_alpha": NaN', "NaN"),
        ('"pathloss_exponent": 1e400', "pathloss_exponent"),
        ('"geometry": {"s1": [1' + "0" * 400 + ', 0], "s2": [0, 0]}', "s1"),
        ('"sweep": {"variable": "power_dbm", "values": [0, -1e400]}', "sweep value"),
    ], ids=["power_dbm", "uncertainty_alpha", "pathloss_exponent", "geometry", "sweep"])
    def test_non_finite_scenario_number_exits_2(self, capsys, tmp_path, setting, field):
        spath = tmp_path / "scenario.json"
        spath.write_text('{"antennas": {"ns1": 4, "ns2": 2, "nd1": 4, "nd2": 2, "ne": 4}, '
                         '"target": [1, 1], "trials": 2, ' + setting + "}")
        code, doc = run_json(capsys, "simulate", "--scenario", str(spath),
                             "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert doc["error"] == "bad_input"
        assert doc["message"].endswith(f"{field} must be a finite number")

    # settings no receiver placement can meet, directly and through a
    # sweep, are refused before any trial is drawn
    @pytest.mark.parametrize("setting", [
        '"geometry": {"s1": [0, 0], "s2": [0, 0]}',
        '"geometry": {"s1": [50, 0], "s2": [0, 0]}, '
        '"sweep": {"variable": "s1_s2_distance", "values": [50, 0.5]}',
    ], ids=["coincident_sources", "sweep_value"])
    def test_unplaceable_sources_exit_2(self, capsys, tmp_path, setting):
        spath = tmp_path / "scenario.json"
        spath.write_text('{"antennas": {"ns1": 4, "ns2": 2, "nd1": 4, "nd2": 2, "ne": 4}, '
                         '"target": [1, 1], "trials": 50, ' + setting + "}")
        code, doc = run_json(capsys, "simulate", "--scenario", str(spath),
                             "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert doc["error"] == "bad_input"
        assert doc["message"] == "sources must be at least one meter apart"
        assert not (tmp_path / "x.csv").exists()

    def test_integer_past_the_digit_limit_exits_2(self, capsys, tmp_path):
        # Python refuses to convert integers of more than 4,300 digits
        bundle = tmp_path / "bundle.json"
        run_json(capsys, "construct", "--antennas", "6,6,5,4,5", "--target", "2,4",
                 "--seed", "7", "--out", str(bundle))
        doc = json.loads(bundle.read_text())
        doc["channels"]["g1"]["data"][0][0][0] = "ENTRY"
        bundle.write_text(json.dumps(doc).replace('"ENTRY"', "1" * 5001))
        code, out = run_json(capsys, "verify", "--channels", str(bundle),
                             "--precoder", str(bundle))
        assert code == 2
        assert out["error"] == "bad_input"
        assert out["message"] == f"{bundle}: an integer of 5001 digits is too long"

    @pytest.mark.parametrize("name", ["v", "w"])
    @pytest.mark.parametrize("entry", ["1e400", "-1" + "0" * 400])
    def test_non_finite_precoder_entry_exits_2(self, capsys, tmp_path, name, entry):
        bundle = tmp_path / "bundle.json"
        run_json(capsys, "construct", "--antennas", "6,6,5,4,5", "--target", "2,4",
                 "--seed", "7", "--out", str(bundle))
        doc = json.loads(bundle.read_text())
        doc["precoder"][name]["data"][0][0][1] = "ENTRY"
        bundle.write_text(json.dumps(doc).replace('"ENTRY"', entry))
        code, out = run_json(capsys, "verify", "--channels", str(bundle),
                             "--precoder", str(bundle))
        assert code == 2
        assert out["error"] == "bad_input"
        assert out["message"].startswith(f"{name}: ")

    def test_non_finite_channel_entry_names_the_matrix(self, capsys, tmp_path):
        bundle = tmp_path / "bundle.json"
        run_json(capsys, "construct", "--antennas", "6,6,5,4,5", "--target", "2,4",
                 "--seed", "7", "--out", str(bundle))
        doc = json.loads(bundle.read_text())
        doc["channels"]["h21"]["data"][1][0][0] = "ENTRY"
        bundle.write_text(json.dumps(doc).replace('"ENTRY"', "1e400"))
        code, out = run_json(capsys, "verify", "--channels", str(bundle),
                             "--precoder", str(bundle))
        assert code == 2
        assert out["message"].startswith("h21")


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
        assert doc["message"] == "precoder rows (5, 2) do not match antenna counts (4, 2)"

    # the images' singular values pass 1e154 at the top of the default grid,
    # where their squares overflow: the output is still strict JSON with
    # finite slopes, and nothing is written to stderr.  At 1e306 the images
    # themselves overflow there, and verify exits 4, again with no warning
    @pytest.mark.parametrize("scale, code", [(1e150, 0), (1e300, 0), (1e306, 4)],
                             ids=["1e+150", "1e+300", "1e+306"])
    def test_huge_channels_give_strict_json(self, tmp_path, scale, code):
        ch = gaussian_channels(AntennaConfig(6, 6, 5, 4, 5), np.random.default_rng(7))
        ch = precoder.ChannelSet(*(scale * getattr(ch, name) for name in precoder._CHANNELS))
        pair = precoder.construct(ch, (2, 4), power=1.0)
        bundle = tmp_path / "bundle.json"
        bundle.write_text(json.dumps({"channels": serialize.channels_to_json(ch),
                                      "precoder": serialize.precoder_to_json(pair)}))
        argv = ["verify", "--channels", str(bundle), "--precoder", str(bundle)]
        proc = run_python(f"import sys; from sdofkit.cli import main; sys.exit(main({argv!r}))",
                          capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (code, "")

        def refuse(name):
            raise ValueError(f"{name} is not strict JSON")

        doc = json.loads(proc.stdout, parse_constant=refuse)
        if code:
            assert doc["error"] == "construction_failed"
            assert doc["message"] == "a received image H P overflows the float range"
        else:
            assert np.isfinite(doc["slopes"]).all()

    def test_channel_norm_beyond_the_float_range_exits_2(self, capsys, tmp_path):
        # every entry finite, but |h12| is not
        ch = gaussian_channels(AntennaConfig(6, 6, 5, 4, 5), np.random.default_rng(3))
        doc = serialize.channels_to_json(ch)
        doc["h12"]["data"] = [[[3e307 * x for x in e] for e in col] for col in doc["h12"]["data"]]
        path = tmp_path / "ch.json"
        path.write_text(json.dumps(doc))
        code, out = run_json(capsys, "verify", "--channels", str(path), "--precoder", str(path))
        assert code == 2
        assert out["error"] == "bad_input"
        assert out["message"] == "h12 has a Frobenius norm beyond the float range"

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

    def test_without_sweep_writes_one_record(self, capsys, tmp_path):
        scenario = {
            "antennas": {"ns1": 4, "ns2": 2, "nd1": 4, "nd2": 2, "ne": 4},
            "target": [1, 1],
            "trials": 3,
        }
        spath = tmp_path / "scenario.json"
        spath.write_text(json.dumps(scenario))
        out_csv = tmp_path / "curve.csv"
        code, doc = run_json(capsys, "simulate", "--scenario", str(spath),
                             "--out", str(out_csv))
        assert code == 0
        assert [(rec["variable"], rec["x"]) for rec in doc["records"]] == [("", 0.0)]
        assert len(out_csv.read_text().strip().splitlines()) == 2

    def test_distance_sweep_without_geometry_exits_2(self, capsys, tmp_path):
        scenario = {
            "antennas": {"ns1": 4, "ns2": 2, "nd1": 4, "nd2": 2, "ne": 4},
            "target": [1, 1],
            "trials": 3,
            "sweep": {"variable": "s1_s2_distance", "values": [150, 50]},
        }
        spath = tmp_path / "scenario.json"
        spath.write_text(json.dumps(scenario))
        code, doc = run_json(capsys, "simulate", "--scenario", str(spath),
                             "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert doc["error"] == "bad_input"
        assert doc["message"] == "distance sweep requires geometry"

    # sources so far apart that a squared link distance overflows (and, at
    # 1.5e308, so does their difference): the geometry is refused as bad
    # input, and the error is strict JSON with nothing on stderr
    @pytest.mark.parametrize("s1, s2", [([1e200, 0], [0, 0]), ([1.5e308, 0], [-1.5e308, 0])],
                             ids=["1e+200", "1.5e+308"])
    def test_overflowing_distance_exits_2_quietly(self, capsys, tmp_path, s1, s2):
        spath = tmp_path / "scenario.json"
        spath.write_text(json.dumps({"antennas": {"ns1": 4, "ns2": 2, "nd1": 4, "nd2": 2,
                                                  "ne": 4},
                                     "target": [1, 1], "geometry": {"s1": s1, "s2": s2},
                                     "trials": 3}))
        code = cli.main(["simulate", "--scenario", str(spath), "--out", str(tmp_path / "x.csv")])
        out, err = capsys.readouterr()
        assert (code, err) == (2, "")

        def refuse(name):
            raise ValueError(f"{name} is not strict JSON")

        doc = json.loads(out, parse_constant=refuse)
        assert doc["error"] == "bad_input"
        assert "squared link distance overflows" in doc["message"]

    def test_unallocatable_arrays_exit_2_quietly(self, capsys, tmp_path, monkeypatch):
        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 142. PiB for an array")

        monkeypatch.setattr(chansim, "_draws", no_memory)
        spath = tmp_path / "scenario.json"
        spath.write_text(json.dumps({"antennas": {"ns1": 4, "ns2": 2, "nd1": 4, "nd2": 2,
                                                  "ne": 4},
                                     "target": [1, 1], "trials": 2}))
        code = cli.main(["simulate", "--scenario", str(spath), "--out", str(tmp_path / "x.csv")])
        out, err = capsys.readouterr()
        assert (code, err) == (2, "")
        assert json.loads(out) == {"status": "error", "error": "bad_input",
                                   "message": "Unable to allocate 142. PiB for an array"}

    def test_antenna_count_beyond_memory_exits_2_in_a_child(self, tmp_path):
        # ns1 = 1e15 asks NumPy for petabytes, which it refuses with its
        # _ArrayMemoryError.  The child runs under a 2 GB address-space
        # limit, set before anything is imported, so that no count can take
        # more memory than that; if the limit cannot be set the child fails
        # before it runs the command.
        pytest.importorskip("resource")
        spath = tmp_path / "scenario.json"
        spath.write_text(json.dumps({"antennas": {"ns1": 1e15, "ns2": 2, "nd1": 4, "nd2": 2,
                                                  "ne": 4},
                                     "target": [1, 1], "trials": 2}))
        argv = ["simulate", "--scenario", str(spath), "--out", str(tmp_path / "x.csv")]
        proc = run_python(
            "import os, resource\n"
            "os.environ['OPENBLAS_NUM_THREADS'] = '1'\n"
            "limit = 2 << 30\n"
            "_, hard = resource.getrlimit(resource.RLIMIT_AS)\n"
            "if hard != resource.RLIM_INFINITY:\n"
            "    limit = min(limit, hard)\n"
            "resource.setrlimit(resource.RLIMIT_AS, (limit, hard))\n"
            f"import sys; from sdofkit.cli import main; sys.exit(main({argv!r}))",
            capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (2, "")
        doc = json.loads(proc.stdout)
        assert doc["error"] == "bad_input"
        assert doc["message"].startswith("Unable to allocate")
        assert not (tmp_path / "x.csv").exists()

    def test_missing_target_exits_2(self, capsys, tmp_path):
        spath = tmp_path / "scenario.json"
        spath.write_text(json.dumps({"antennas": {"ns1": 1, "ns2": 1, "nd1": 1,
                                                  "nd2": 1, "ne": 1}}))
        code, doc = run_json(capsys, "simulate", "--scenario", str(spath),
                             "--out", str(tmp_path / "x.csv"))
        assert code == 2

    def test_negative_seed_exits_2(self, capsys, tmp_path):
        spath = tmp_path / "scenario.json"
        spath.write_text(json.dumps({"antennas": {"ns1": 4, "ns2": 2, "nd1": 4, "nd2": 2,
                                                  "ne": 4},
                                     "target": [1, 1], "trials": 2, "seed": -1}))
        code, doc = run_json(capsys, "simulate", "--scenario", str(spath),
                             "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert doc["error"] == "bad_input"
        assert doc["message"] == "scenario: -1 is less than the minimum of 0 (at /seed)"
        assert not (tmp_path / "x.csv").exists()

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

    def test_text_that_is_not_json_is_a_schema_violation(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{")
        with pytest.raises(SchemaViolation, match=r"bad\.json: invalid JSON \("):
            serialize.load_json(path)

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


# Prints, after each step, whether MODULE has been loaded, and each
# command's exit code, parsed output and stdout.  A repeated command is
# labelled with its ordinal ("construct 2").  With BLOCK set, MODULE cannot
# be imported.
_MODULE_PROBE = """
import contextlib, io, json, sys
if BLOCK:
    sys.modules[MODULE] = None
loaded, seen = {}, []
import sdofkit
loaded["import sdofkit"] = sys.modules.get(MODULE) is not None
import sdofkit.cli
loaded["import sdofkit.cli"] = sys.modules.get(MODULE) is not None
for argv in ARGVS:
    seen.append(argv[0])
    label = argv[0] if seen.count(argv[0]) == 1 else f"{argv[0]} {seen.count(argv[0])}"
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = sdofkit.cli.main(argv)
    loaded[label] = sys.modules.get(MODULE) is not None
    loaded[label + " output"] = [code, json.loads(out.getvalue())]
    loaded[label + " stdout"] = out.getvalue()
print(json.dumps(loaded))
"""


def module_probe(module, *argvs, block=False):
    code = (_MODULE_PROBE.replace("MODULE", repr(module)).replace("ARGVS", repr(list(argvs)))
            .replace("BLOCK", repr(block)))
    proc = run_python(code, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def scipy_probe(*argvs):
    return module_probe("scipy.linalg", *argvs)


# the steps of every_command, as module_probe labels them
COMMAND_LABELS = ["region", "construct", "construct 2", "verify", "simulate"]


def every_command(tmp_path):
    """Each command once, and construct from a channel file as well."""
    bundle, scenario = str(tmp_path / "bundle.json"), tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"antennas": {"ns1": 4, "ns2": 2, "nd1": 4, "nd2": 2, "ne": 4},
                                    "target": [1, 1], "trials": 3, "seed": 5}))
    return [
        ["region", "--antennas", "6,6,5,4,5"],
        ["construct", "--antennas", "6,6,5,4,5", "--target", "2,4", "--seed", "7",
         "--out", bundle],
        ["construct", "--antennas", "6,6,5,4,5", "--target", "2,4", "--channels", bundle],
        ["verify", "--channels", bundle, "--precoder", bundle],
        ["simulate", "--scenario", str(scenario), "--out", str(tmp_path / "curve.csv")],
    ]


class TestImportCost:
    """SciPy serves only the cosine-sine step of a GSVD with a shared
    block, so commands that compute none never load it, and those that do
    load only its compiled LAPACK module.  Input files are checked inside
    ``sdofkit``, so no command loads ``jsonschema``."""

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

    def test_no_command_loads_scipy_linalg(self, tmp_path):
        # construct and simulate load only SciPy's compiled LAPACK module,
        # at their first GSVD with a shared block
        loaded = module_probe("scipy.linalg", *every_command(tmp_path))
        assert [loaded[label + " output"][0] for label in COMMAND_LABELS] == [0] * 5
        assert loaded["construct output"][1]["sdof"] == [2, 4]
        assert loaded["verify output"][1]["sdof"] == [2, 4]
        steps = ["import sdofkit", "import sdofkit.cli", *COMMAND_LABELS]
        assert {step: loaded[step] for step in steps} == dict.fromkeys(steps, False)
        assert module_probe("scipy")["import sdofkit.cli"] is False

    def test_no_command_loads_jsonschema(self, tmp_path):
        loaded = module_probe("jsonschema", *every_command(tmp_path))
        assert [loaded[label + " output"][0] for label in COMMAND_LABELS] == [0] * 5
        assert loaded["verify output"][1]["sdof"] == [2, 4]
        steps = ["import sdofkit", "import sdofkit.cli", *COMMAND_LABELS]
        assert {step: loaded[step] for step in steps} == dict.fromkeys(steps, False)

    def test_commands_run_with_jsonschema_blocked(self, tmp_path):
        argvs = every_command(tmp_path)
        free = module_probe("jsonschema", *argvs)
        bad = tmp_path / "bad.json"
        bad.write_text('{"antennas": {"ns1": 4, "ns2": 2, "nd1": 4, "nd2": 2, "ne": 4}, '
                       '"target": [1, 1], "trials": true}')
        blocked = module_probe("jsonschema", *argvs,
                               ["simulate", "--scenario", str(bad), "--out", str(tmp_path / "x.csv")],
                               block=True)
        for label in COMMAND_LABELS:
            assert blocked[label + " output"][0] == 0
            assert blocked[label + " stdout"] == free[label + " stdout"]
        code, doc = blocked["simulate 2 output"]
        assert code == 2
        assert doc["error"] == "bad_input"
        assert doc["message"] == "scenario: True is not of type 'integer' (at /trials)"


class TestResultSchemas:
    """Each command's output meets its shipped ``<command>_result`` schema;
    the CLI prints it without checking.  Each case also checks the fields
    that make it the variant it is named for."""

    @pytest.mark.parametrize("argv, variant", [
        pytest.param(["region", "--antennas", "6,6,5,4,5"],
                     lambda doc: doc["strict_boundary"] == [[3, 3], [2, 4]], id="region"),
        pytest.param(["region", "--antennas", "1,1,1,1,1"],
                     lambda doc: doc["strict_boundary"] == [], id="region_no_strict_points"),
        pytest.param(["construct", "--antennas", "6,6,5,4,5", "--target", "2,4", "--seed", "7",
                      "--out", "{tmp}/again.json"],
                     lambda doc: doc["seed"] == 7 and doc["out_path"].endswith("again.json"),
                     id="construct_seeded_out"),
        pytest.param(["construct", "--antennas", "6,6,5,4,5", "--target", "2,4",
                      "--channels", "{tmp}/bundle.json"],
                     lambda doc: doc["seed"] is None and doc["out_path"] is None,
                     id="construct_channels"),
        pytest.param(["verify", "--channels", "{tmp}/bundle.json",
                      "--precoder", "{tmp}/bundle.json"],
                     lambda doc: doc["p_grid"] == [1e6, 1e8, 1e10, 1e12], id="verify"),
        pytest.param(["verify", "--channels", "{tmp}/bundle.json",
                      "--precoder", "{tmp}/bundle.json", "--p-grid", "1e4,1e8,1e10"],
                     lambda doc: doc["p_grid"] == [1e4, 1e8, 1e10], id="verify_p_grid"),
        pytest.param(["simulate", "--scenario", "{tmp}/sweep.json", "--out", "{tmp}/a.csv"],
                     lambda doc: [rec["x"] for rec in doc["records"]] == [0.0, 10.0],
                     id="simulate_sweep"),
        pytest.param(["simulate", "--scenario", "{tmp}/single.json", "--out", "{tmp}/b.csv"],
                     lambda doc: [rec["variable"] for rec in doc["records"]] == [""],
                     id="simulate"),
    ])
    def test_output_meets_schema(self, capsys, tmp_path, argv, variant):
        run_json(capsys, "construct", "--antennas", "6,6,5,4,5", "--target", "2,4",
                 "--seed", "7", "--out", str(tmp_path / "bundle.json"))
        scenario = {"antennas": {"ns1": 4, "ns2": 2, "nd1": 4, "nd2": 2, "ne": 4},
                    "target": [1, 1], "trials": 3}
        (tmp_path / "single.json").write_text(json.dumps(scenario))
        sweep = {"variable": "power_dbm", "values": [0, 10]}
        (tmp_path / "sweep.json").write_text(json.dumps({**scenario, "sweep": sweep}))
        code, doc = run_json(capsys, *(arg.format(tmp=tmp_path) for arg in argv))
        assert code == 0
        serialize.validate_document(doc, f"{argv[0]}_result")
        assert variant(doc)


# the values a fuzzed field takes: every JSON type, the numeric edges and a
# malformed matrix
FUZZ_VALUES = [None, True, False, 0, -1, 1e308, 10**400, float("nan"), float("inf"), 2**63,
               "x", "", [], [[]], {"rows": 2, "data": [[[1.0, 0.0]]]}]
# trials are bounded, so that no example runs for long
FUZZ_TRIALS = [None, True, 0, -1, 1, 3, 2.5, "3", []]
FUZZ_KEYS = ["trials", "seed", "geometry", "sweep", "rows", "data", "power", "extra"]
LOS_SCENARIO = {"antennas": {"ns1": 4, "ns2": 2, "nd1": 4, "nd2": 2, "ne": 4}, "target": [1, 1],
                "geometry": {"s1": [50.0, 0.0], "s2": [0.0, 0.0], "ring_radius": 10.0},
                "uncertainty_alpha": 0.2, "trials": 2, "seed": 3,
                "sweep": {"variable": "s1_s2_distance", "values": [50.0, 100.0]}}
GAUSSIAN_SCENARIO = {"antennas": {"ns1": 4, "ns2": 2, "nd1": 4, "nd2": 2, "ne": 4},
                     "target": [1, 1], "uncertainty_alpha": 0.2, "trials": 2, "seed": 4,
                     "sweep": {"variable": "power_dbm", "values": [0.0, 10.0]}}


def construct_bundle():
    ch = gaussian_channels(AntennaConfig(4, 2, 4, 2, 4), np.random.default_rng(7))
    pair = precoder.construct(ch, (1, 1), power=1.0)
    return {"channels": serialize.channels_to_json(ch),
            "precoder": serialize.precoder_to_json(pair),
            "antennas": [4, 2, 4, 2, 4], "target": [1, 1], "sdof": [1, 1], "seed": 7}


@st.composite
def fuzzed(draw):
    """A command and its input document: a valid one with one to three
    mutations, each a field replaced or deleted, or a field added to an
    object or a list (on a plain value, "add" replaces it).  Each mutation
    walks down from the top, one level, then each further level with even
    odds, so most of them hit the named fields rather than matrix entries."""
    command = draw(st.sampled_from(["simulate", "verify", "construct"]))
    doc = (draw(st.sampled_from([LOS_SCENARIO, GAUSSIAN_SCENARIO])) if command == "simulate"
           else construct_bundle())
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        parent, key, value = None, None, doc
        while (isinstance(value, (dict, list)) and value
               and (parent is None or draw(st.booleans()))):
            parent, key = value, draw(st.sampled_from(
                list(value) if isinstance(value, dict) else range(len(value))))
            value = parent[key]
        op = draw(st.sampled_from(["replace", "delete", "add"]))
        if op == "add" and isinstance(value, dict):
            parent, key = value, draw(st.sampled_from(FUZZ_KEYS))
        elif op == "add" and isinstance(value, list):
            parent, key = value, None
        elif parent is None:
            continue
        elif op == "delete":
            del parent[key]
            continue
        new = copy.deepcopy(draw(st.sampled_from(FUZZ_TRIALS if key == "trials" else FUZZ_VALUES)))
        if key is None:
            parent.append(new)
        else:
            parent[key] = new
    return command, doc


class TestFuzzedInputs:
    """The CLI contract under malformed input: mutations of a line-of-sight
    and a Gaussian scenario, run by ``simulate``, and of a ``construct``
    bundle, run by ``verify`` and ``construct --channels``, each exit 0,
    2, 3 or 4, print strict JSON, and write nothing to stderr and warn
    nothing."""

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(case=fuzzed())
    def test_exit_code_json_and_quiet_stderr(self, tmp_path_factory, case):
        command, doc = case
        work = tmp_path_factory.getbasetemp()
        path = work / "fuzzed.json"
        path.write_text(json.dumps(doc))
        argv = {
            "simulate": ["simulate", "--scenario", str(path), "--out", str(work / "curve.csv")],
            "verify": ["verify", "--channels", str(path), "--precoder", str(path)],
            "construct": ["construct", "--antennas", "4,2,4,2,4", "--target", "1,1",
                          "--channels", str(path)],
        }[command]
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        assert code in (0, 2, 3, 4)
        assert err.getvalue() == "" and [str(w.message) for w in caught] == []

        def refuse(constant):
            raise AssertionError(f"{constant} is not strict JSON")

        result = json.loads(out.getvalue(), parse_constant=refuse)
        assert result["status"] == ("ok" if code == 0 else "error")
