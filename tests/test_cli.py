import json
import math
import pathlib

import numpy as np
import pytest

from persuade import cli, objectives
from persuade.core import uniform_prior
from persuade.fixtures import FixtureId, build_fixture


@pytest.fixture
def example1_paths(tmp_path):
    fx = build_fixture(FixtureId("example1", (1 / 6,)))
    inst_path = tmp_path / "example1.json"
    inst_path.write_text(cli.dump_json(cli.instance_to_dict(fx.instance)))
    scheme_path = tmp_path / "scheme.json"
    scheme_path.write_text(cli.dump_json(cli.scheme_to_dict(fx.reference_scheme)))
    return fx, str(inst_path), str(scheme_path)


def test_solve_exit_ok(example1_paths, tmp_path, capsys):
    fx, inst_path, _ = example1_paths
    out = tmp_path / "solution.json"
    code = cli.main(["solve", inst_path, "--eps", "0.05", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["value"] >= 0.45
    assert payload["report"]["support_size"] <= 3


def test_solve_infeasible_exit_2(tmp_path):
    doc = {
        "k": 2, "prior": [0.5, 0.5],
        "utility": {"kind": "max_linear", "coeffs": [[1.0, 0.0], [0.0, 1.0]]},
        "constraints": [
            {"kind": "linear", "params": {"coeffs": [1.0, 1.0]},
             "bound": 0.5, "mode": "ex_post"},
        ],
    }
    path = tmp_path / "infeasible.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["solve", str(path), "--eps", "0.1"]) == 2


def test_solve_bad_prior_field_message(tmp_path, capsys):
    doc = {"k": 2, "prior": [0.5, 0.4],
           "utility": {"kind": "max_linear", "coeffs": [[1.0, 0.0]]},
           "constraints": []}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code = cli.main(["solve", str(path), "--eps", "0.1"])
    err = capsys.readouterr().err
    assert code == 1
    assert "prior" in err


def test_solve_single_mode(example1_paths, tmp_path):
    _, inst_path, _ = example1_paths
    out = tmp_path / "single.json"
    code = cli.main(["solve", inst_path, "--eps", "0.05", "--mode", "single",
                     "--slater-margin", "0.1666", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    for entry in payload["report"]["constraints"]:
        assert entry["violation"] <= 1e-9


def test_convert_app_e1_ratio(tmp_path):
    fx = build_fixture(FixtureId("appE1", (2,)))
    inst_path = tmp_path / "appE1.json"
    inst_path.write_text(cli.dump_json(cli.instance_to_dict(fx.instance)))
    scheme_path = tmp_path / "full.json"
    scheme_path.write_text(cli.dump_json(cli.scheme_to_dict(fx.reference_scheme)))
    out = tmp_path / "converted.json"
    code = cli.main(["convert", str(inst_path), str(scheme_path),
                     "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["report"]["ratio"] == pytest.approx(0.25, abs=1e-9)


def test_convert_already_feasible_ratio_one(example1_paths, tmp_path):
    fx, inst_path, _ = example1_paths
    scheme = cli.scheme_to_dict(
        __import__("persuade.core", fromlist=["no_revelation"]).no_revelation(
            uniform_prior(2)))
    spath = tmp_path / "nr.json"
    spath.write_text(cli.dump_json(scheme))
    out = tmp_path / "conv.json"
    code = cli.main(["convert", inst_path, str(spath), "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["report"]["ratio"] == pytest.approx(1.0)


def test_convert_nonconvex_kind_exit_1(tmp_path):
    doc = {
        "k": 2, "prior": [0.5, 0.5],
        "utility": {"kind": "max_linear", "coeffs": [[1.0, 0.0], [0.0, 1.0]]},
        "constraints": [
            {"kind": "bump", "params": {"center": [0.5, 0.5], "radius": 0.2},
             "bound": 2.0, "mode": "ex_ante"},
        ],
    }
    inst_path = tmp_path / "bumpy.json"
    inst_path.write_text(json.dumps(doc))
    scheme_path = tmp_path / "full.json"
    scheme_path.write_text(json.dumps(
        {"support": [[1.0, 0.0], [0.0, 1.0]], "probs": [0.5, 0.5]}))
    assert cli.main(["convert", str(inst_path), str(scheme_path)]) == 1


def test_convert_invalid_scheme_exit_2(example1_paths, tmp_path):
    fx, inst_path, _ = example1_paths
    bad = {"support": [[1.0, 0.0], [0.0, 1.0]], "probs": [0.2, 0.8]}
    spath = tmp_path / "bad_scheme.json"
    spath.write_text(json.dumps(bad))
    assert cli.main(["convert", inst_path, str(spath)]) == 2


def test_verify_exit_codes(example1_paths, tmp_path):
    fx, inst_path, scheme_path = example1_paths
    post = fx.instance.with_modes("ex_post")
    post_path = tmp_path / "post.json"
    post_path.write_text(cli.dump_json(cli.instance_to_dict(post)))
    assert cli.main(["verify", str(post_path), scheme_path]) == 0
    full = {"support": [[1.0, 0.0], [0.0, 1.0]], "probs": [0.5, 0.5]}
    fpath = tmp_path / "full.json"
    fpath.write_text(json.dumps(full))
    assert cli.main(["verify", str(post_path), str(fpath)]) == 2


def test_fixture_command(tmp_path, capsys):
    assert cli.main(["fixture", "appE3:2", "--verify"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert payload["verification"]["passed"] is True
    assert cli.main(["fixture", "bogus"]) == 1


def test_fixture_example1_verify(capsys):
    assert cli.main(["fixture", "example1:0.16666666666666666", "--verify"]) == 0


def test_verify_prop3_reference_and_perturbed(tmp_path):
    fx = build_fixture(FixtureId("prop3", (2, 2)))
    inst_path = tmp_path / "prop3.json"
    inst_path.write_text(cli.dump_json(cli.instance_to_dict(fx.instance)))
    ref_path = tmp_path / "ref.json"
    ref_path.write_text(cli.dump_json(cli.scheme_to_dict(fx.reference_scheme)))
    assert cli.main(["verify", str(inst_path), str(ref_path)]) == 0
    # Perturbing one weight breaks Bayes plausibility.
    doc = json.loads(ref_path.read_text())
    doc["probs"][0] += 1e-3
    doc["probs"][1] -= 1e-3
    bad_path = tmp_path / "perturbed.json"
    bad_path.write_text(json.dumps(doc))
    assert cli.main(["verify", str(inst_path), str(bad_path)]) != 0


def test_fixture_prop3_verify(capsys):
    assert cli.main(["fixture", "prop3:2,1", "--verify"]) == 0


def test_round_trip_bit_exact(example1_paths, tmp_path):
    fx, inst_path, scheme_path = example1_paths
    doc = json.loads(pathlib.Path(inst_path).read_text())
    inst = cli.instance_from_dict(doc)
    again = cli.instance_to_dict(inst)
    assert cli.dump_json(again) == cli.dump_json(doc)
    # Floats survive exactly (1/6 is not dyadic).
    assert again["constraints"][0]["bound"] == 0.5 + 1 / 6
    sdoc = json.loads(pathlib.Path(scheme_path).read_text())
    scheme = cli.scheme_from_dict(sdoc)
    assert cli.dump_json(cli.scheme_to_dict(scheme)) == cli.dump_json(sdoc)


def test_solve_deterministic(example1_paths, tmp_path):
    _, inst_path, _ = example1_paths
    o1, o2 = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(["solve", inst_path, "--eps", "0.05", "--out", str(o1)]) == 0
    assert cli.main(["solve", inst_path, "--eps", "0.05", "--out", str(o2)]) == 0
    assert o1.read_text() == o2.read_text()


def test_grid_cap_env(example1_paths, monkeypatch, capsys):
    _, inst_path, _ = example1_paths
    monkeypatch.setenv("PERSUADE_GRID_CAP", "5")
    code = cli.main(["solve", inst_path, "--eps", "0.05"])
    assert code == 1
    assert "cap" in capsys.readouterr().err


def test_grid_csv(example1_paths, tmp_path):
    _, inst_path, _ = example1_paths
    out = tmp_path / "sol.json"
    csv_path = tmp_path / "grid.csv"
    code = cli.main(["solve", inst_path, "--eps", "0.3", "--out", str(out),
                     "--grid-csv", str(csv_path)])
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "p0,p1,value"
    assert len(lines) > 3


@pytest.mark.parametrize("extra", [
    ["--eps", "inf"],
    ["--eps", "nan"],
    ["--eps", "0.1", "--mode", "single", "--slater-margin", "nan"],
])
def test_solve_non_finite_input_exit_1(example1_paths, capsys, extra):
    _, inst_path, _ = example1_paths
    code = cli.main(["solve", inst_path, *extra])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_grid_csv_single_mode_uses_solved_grid(tmp_path, monkeypatch):
    inst_path = tmp_path / "example1.json"
    assert cli.main(["fixture", "example1:0.1666", "--out", str(inst_path)]) == 0
    inst_path.write_text(cli.dump_json(json.loads(inst_path.read_text())["instance"]))
    calls = []
    build = objectives.build_upper_approx

    def counting(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(objectives, "build_upper_approx", counting)
    out, csv_path = tmp_path / "sol.json", tmp_path / "grid.csv"
    code = cli.main(["solve", str(inst_path), "--eps", "0.1", "--mode", "single",
                     "--slater-margin", "0.2", "--out", str(out),
                     "--grid-csv", str(csv_path)])
    assert code == 0
    report = json.loads(out.read_text())["report"]
    rows = csv_path.read_text().strip().splitlines()[1:]
    assert report["grid_denominator"] == 320
    assert len(rows) == report["grid_vertex_count"] == 321
    assert len(calls) == 1


def test_auction_instance_json(tmp_path):
    doc = {
        "k": 4, "prior": [0.25, 0.25, 0.25, 0.25],
        "utility": {"kind": "auction_welfare", "auction": {
            "bidders": [
                [{"weight": 1.0, "v0": 0.0, "v1": 1.0}],
                [{"weight": 0.5, "v0": 0.1, "v1": 0.6},
                 {"weight": 0.5, "v0": 0.0, "v1": 1.0}],
            ]}},
        "constraints": [
            {"kind": "neg_min_weighted", "params": {"weights": [1, 1, 1, 1]},
             "bound": -0.1, "mode": "ex_ante"},
        ],
    }
    path = tmp_path / "auction.json"
    path.write_text(json.dumps(doc))
    inst = cli.load_instance(str(path))
    assert inst.utility.kind == "auction_welfare"
    assert inst.utility.auction.n == 2
    round_tripped = cli.instance_from_dict(cli.instance_to_dict(inst))
    assert round_tripped.utility.auction.bidders[1][0].low_value == 0.1
