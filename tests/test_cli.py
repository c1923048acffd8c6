import contextlib
import io
import json
import math
import os
import pathlib
import shlex
import subprocess
import sys
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from persuade import cli, fixtures, geometry, objectives
from persuade.core import eval_constraint_batch, uniform_prior
from persuade.fixtures import FixtureId, build_fixture
from persuade.solver import BOUNDARY_TOL

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


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


def test_convert_stalled_pooling_exit_1(tmp_path, capsys):
    doc = {
        "k": 2, "prior": [0.5, 0.5],
        "utility": {"kind": "max_linear", "coeffs": [[1.0, 0.0], [0.0, 1.0]]},
        "constraints": [
            {"kind": "linear", "params": {"coeffs": [0.0, 1.0]},
             "bound": 0.5, "mode": "ex_ante"},
        ],
    }
    inst_path = tmp_path / "instance.json"
    inst_path.write_text(json.dumps(doc))
    scheme_path = tmp_path / "scheme.json"
    scheme_path.write_text(json.dumps(
        {"support": [[0.5, 0.5], [0.5 - 1e-10, 0.5 + 1e-10]], "probs": [0.5, 0.5]}))
    assert cli.main(["convert", str(inst_path), str(scheme_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: pooling stalled")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_module_entry_point_runs_a_fixture():
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-m", "persuade", "fixture", "appE3:2",
                           "--verify"], capture_output=True, text=True, env=env,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["verification"]["passed"] is True


def test_closed_stdout_exits_1_with_one_line():
    # A reader that stops early, as in `persuade fixture prop3:172,1 | head
    # -c 100`, closes the pipe while the 1.5 MB document is being written.
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    with subprocess.Popen([sys.executable, "-m", "persuade", "fixture", "prop3:172,1"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=env) as proc:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=300)
    assert code == 1
    assert err.startswith("error: standard output closed")
    assert err.count("\n") == 1 and "Traceback" not in err


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


@pytest.mark.parametrize("fid, message", [
    ("example1:0.1,0.2", "does not match example1:eps0"),
    ("prop3:2", "does not match prop3:k,m"),
    ("example1:abc", "eps0 must be a finite number"),
    ("example1:", "does not match example1:eps0"),
    ("example1:nan", "eps0 must be a finite number"),
    ("appE1:2.5", "m must be a finite integer"),
    ("prop3:2.7,1", "k must be a finite integer"),
    ("prop3:1e300,1", "1e+300 states"),
    ("appE3:1e9", "1e+09 states"),
])
def test_malformed_fixture_id_exit_1(capsys, fid, message):
    # Each used to end in a traceback (appE3:1e9 in a failed allocation) or,
    # for the non-integral counts, to be truncated to an integer.
    code = cli.main(["fixture", fid])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith("error: fixture") and err.count("\n") == 1
    assert message in err


def test_fixture_example1_verify(capsys):
    assert cli.main(["fixture", "example1:0.16666666666666666", "--verify"]) == 0


def test_fixture_verify_builds_the_fixture_once(monkeypatch, capsys):
    calls = []
    build = fixtures.build_fixture

    def counting(fid):
        calls.append(fid)
        return build(fid)

    monkeypatch.setattr(fixtures, "build_fixture", counting)
    assert cli.main(["fixture", "prop3:3,2", "--verify"]) == 0
    assert json.loads(capsys.readouterr().out)["verification"]["passed"] is True
    assert len(calls) == 1


def test_grid_out_of_memory_exit_1_with_one_line(example1_paths, monkeypatch, capsys):
    # What numpy raises when a grid's rank table cannot be allocated, as
    # under PERSUADE_GRID_CAP=99999999999999999999999 at eps 1e-9; at eps
    # 1e-5 the grid (N = 400000) is past one block, so it builds the table.
    def no_memory(k, N):
        raise MemoryError(f"Unable to allocate 179. GiB for an array with "
                          f"shape ({k + 1}, {N + 1}) and data type int64")

    monkeypatch.setattr(geometry, "_rank_table", no_memory)
    _, inst_path, _ = example1_paths
    code = cli.main(["solve", inst_path, "--eps", "1e-5"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith("error: out of memory (Unable to allocate 179. GiB")
    assert "grid" in err and err.count("\n") == 1


@pytest.mark.parametrize("eps", ["0.1", "0.04"])
def test_grid_too_large_for_an_array_exit_1_with_one_line(eps, tmp_path, monkeypatch,
                                                          capsys):
    # k = 12, max(q0, q1), ex-ante l1 <= 0.3: V ~ 5.0e18 at eps 0.1 and
    # ~1.0e23 at eps 0.04, both under the raised cap but past what an array
    # can index.
    k = 12
    doc = {"k": k, "prior": [1 / k] * k,
           "utility": {"kind": "max_linear", "rank": 1, "coeffs": np.eye(k)[:2].tolist()},
           "constraints": [{"kind": "norm_distance", "mode": "ex_ante", "bound": 0.3,
                            "params": {"order": 1}}]}
    inst_path = tmp_path / "k12.json"
    inst_path.write_text(json.dumps(doc))
    monkeypatch.setenv("PERSUADE_GRID_CAP", "9" * 26)
    code = cli.main(["solve", str(inst_path), "--eps", eps])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith("error: grid would need ") and err.count("\n") == 1


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


def test_fixture_prop3_in_172_states_exits_0(capsys):
    # 171! overflows a float; deciding that the full-simplex piece is one
    # simplex computes no factorial.
    assert cli.main(["fixture", "prop3:172,1"]) == 0
    out, err = capsys.readouterr()
    assert json.loads(out)["id"] == "prop3:172,1"
    assert err == ""


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


@pytest.mark.parametrize("flag", ["--out", "--grid-csv"])
def test_solve_unwritable_output_exit_1(example1_paths, tmp_path, capsys, flag):
    _, inst_path, _ = example1_paths
    path = str(tmp_path / "missing" / "out.txt")
    code = cli.main(["solve", inst_path, "--eps", "0.3", flag, path])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert path in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["verify", "convert"])
@pytest.mark.parametrize("tol", ["inf", "nan", "-1"])
def test_tol_not_finite_and_nonnegative_exit_1(example1_paths, tmp_path, capsys,
                                               command, tol):
    # The scheme's Bayes deviation is 0.4, which --tol inf used to accept.
    _, inst_path, _ = example1_paths
    bad = tmp_path / "bad_scheme.json"
    bad.write_text(json.dumps({"support": [[1.0, 0.0], [0.0, 1.0]],
                               "probs": [0.9, 0.1]}))
    code = cli.main([command, inst_path, str(bad), "--tol", tol])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: tol") and err.count("\n") == 1


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
    assert report["grid_denominator"] == 160
    assert len(rows) == report["grid_vertex_count"] == 161
    assert len(calls) == 1


def test_grid_csv_ex_post_rows_are_the_feasible_columns(tmp_path):
    # With its constraint made ex post, example1's CSV holds exactly the LP
    # columns: the grid vertices that satisfy the constraint within
    # BOUNDARY_TOL, fewer than the grid's N+1.
    inst = build_fixture(FixtureId("example1", (1 / 6,))).instance.with_modes("ex_post")
    inst_path = tmp_path / "post.json"
    inst_path.write_text(cli.dump_json(cli.instance_to_dict(inst)))
    out, csv_path = tmp_path / "sol.json", tmp_path / "grid.csv"
    assert cli.main(["solve", str(inst_path), "--eps", "0.1", "--out", str(out),
                     "--grid-csv", str(csv_path)]) == 0
    report = json.loads(out.read_text())["report"]
    table = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
    assert report["mode"] == "ex_post_restricted"
    assert len(table) == report["grid_vertex_count"] < report["grid_denominator"] + 1
    (spec,) = inst.constraints
    values = eval_constraint_batch(spec, table[:, :-1], inst.prior)
    assert np.all(values <= spec.bound + BOUNDARY_TOL)


def test_readme_quick_start_exits_0(tmp_path, monkeypatch, capsys):
    # The README's CLI block, command by command, in an empty directory:
    # solve, verify and convert read the document `fixture --out` writes.
    block = README.read_text().split("## CLI", 1)[1].split("```sh", 1)[1].split("```")[0]
    commands = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("persuade ")]
    assert len(commands) == 7
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert cli.main(argv) == 0, argv
        capsys.readouterr()


_EYE2 = [[1.0, 0.0], [0.0, 1.0]]


def _k2_doc(**changes) -> dict:
    doc = {"k": 2, "prior": [0.5, 0.5], "constraints": [],
           "utility": {"kind": "max_linear",
                       "terms": [{"weight": 1.0, "rank": 1, "coeffs": _EYE2}]}}
    return {**doc, **changes}


@pytest.mark.parametrize("field, doc", [
    pytest.param("k", _k2_doc(k=2.9), id="k-float"),
    pytest.param("k", _k2_doc(k="2"), id="k-string"),
    pytest.param("utility.terms[0].rank", _k2_doc(utility={
        "kind": "max_linear", "terms": [{"weight": 1.0, "rank": 1.7, "coeffs": _EYE2}]}),
        id="rank-float"),
    pytest.param("utility.rank", _k2_doc(utility={
        "kind": "max_linear", "rank": True, "coeffs": _EYE2}), id="rank-bool"),
    pytest.param("constraints[0]", _k2_doc(
        k=3, prior=[0.2, 0.3, 0.5],
        utility={"kind": "max_linear", "coeffs": np.eye(3).tolist()},
        constraints=[{"kind": "grouped_kl", "bound": 0.3, "params": {
            "partition": [[0.7], [1.2, 2]], "scale": 1.0, "refs": [0.2, 0.8]}}]),
        id="partition-float"),
    pytest.param("utility.auction.profile_cap", _k2_doc(k=4, prior=[0.25] * 4, utility={
        "kind": "auction_welfare", "auction": {"profile_cap": 2.5, "bidders": [
            [{"weight": 1.0, "v0": 0.0, "v1": 1.0}],
            [{"weight": 1.0, "v0": 0.0, "v1": 1.0}]]}}), id="profile-cap-float"),
])
def test_non_integer_fields_exit_1(tmp_path, capsys, field, doc):
    # int() used to truncate each of these (and the grouped-KL partition
    # entries) and the file solved; now each is one input-error line.
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    code = cli.main(["solve", str(path), "--eps", "0.5"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: {field}: ") and err.count("\n") == 1


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


_MAX = {"kind": "max_linear", "coeffs": [[1.0, 0.0], [0.0, 1.0]]}
_KL = {"kind": "grouped_kl", "bound": 0.1,
       "params": {"partition": [[0], [1]], "scale": 1.0, "refs": [0.5, 0.5]}}
_PIECES = [{"vertices": [[1.0, 0.0], [0.5, 0.5]], "value": 0.0},
           {"vertices": [[0.5, 0.5], [0.0, 1.0]], "value": 1.0}]


def _with(base: dict, path: tuple, value) -> dict:
    doc = json.loads(json.dumps(base))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def _linear(coeffs):
    return {"kind": "linear", "params": {"coeffs": coeffs}, "bound": 0.9}


def _auction(weight, v1):
    return {"kind": "auction_welfare", "auction": {"bidders": [[
        {"weight": weight, "v0": 0.0, "v1": v1}]]}}


@pytest.mark.parametrize("utility,constraint,field", [
    (_MAX, _linear([math.nan, 1.0]), "linear coeffs"),
    (_MAX, _linear([1e308, -1e308]), "linear constraint Lipschitz"),
    ({"kind": "max_linear", "coeffs": [[math.inf, 0.0]]}, None, "term coeffs"),
    ({"kind": "max_linear", "coeffs": [[math.nan, 0.0]]}, None, "term coeffs"),
    ({"kind": "max_linear", "coeffs": [[1e308, -1e308], [0.0, 0.0]]}, None,
     "utility Lipschitz"),
    ({"kind": "max_linear", "terms": [{"weight": math.inf, "coeffs": [[1.0, 0.0]]}]},
     None, "term weight"),
    (_MAX, _with(_KL, ("params", "refs"), [math.inf, 0.5]), "grouped_kl refs"),
    (_MAX, _with(_KL, ("params", "scale"), math.nan), "grouped_kl scale"),
    (_MAX, {"kind": "neg_min_weighted", "params": {"weights": [math.nan, 1.0]},
            "bound": 0.0}, "neg_min_weighted weights"),
    (_MAX, {"kind": "bump", "params": {"center": [0.5, 0.5], "radius": math.nan},
            "bound": 1.0}, "bump radius"),
    ({"kind": "piecewise_constant",
      "pieces": _with(_PIECES, (0, "vertices", 1, 0), math.nan)}, None,
     "piece vertices"),
    ({"kind": "piecewise_constant", "pieces": _with(_PIECES, (1, "value"), math.inf)},
     None, "piece value"),
    (_auction(math.nan, 1.0), None, "type weight"),
    (_auction(1.0, math.inf), None, "bidder values"),
], ids=["linear-nan", "linear-overflow", "utility-inf", "utility-nan",
        "utility-overflow", "weight-inf", "kl-refs-inf", "kl-scale-nan",
        "neg-min-nan", "bump-radius-nan", "piece-vertex-nan", "piece-value-inf",
        "bidder-weight-nan", "bidder-value-inf"])
def test_solve_non_finite_instance_numbers_exit_1(tmp_path, capsys, utility,
                                                  constraint, field):
    doc = {"k": 2, "prior": [0.5, 0.5], "utility": utility,
           "constraints": [constraint] if constraint else []}
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    code = cli.main(["solve", str(path), "--eps", "0.1"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert field in err
    assert "Traceback" not in err and "RuntimeWarning" not in err


@pytest.mark.parametrize("vertices", [
    np.vstack([np.eye(4), np.full(4, 0.25)]).tolist(),
    [[1.0, 0.0, 0.0], [0.5, 0.5, 0.0], [0.0, 1.0, 0.0]],
], ids=["k4-five-vertices", "k3-collinear"])
def test_verify_unsupported_piece_exit_1(tmp_path, capsys, vertices):
    k = len(vertices[0])
    doc = {"k": k, "prior": [1.0 / k] * k, "constraints": [],
           "utility": {"kind": "piecewise_constant", "pieces": [
               {"vertices": np.eye(k).tolist(), "value": 0.0},
               {"vertices": vertices, "value": 1.0}]}}
    inst_path, scheme_path = tmp_path / "inst.json", tmp_path / "scheme.json"
    inst_path.write_text(json.dumps(doc))
    scheme_path.write_text(json.dumps({"support": np.eye(k).tolist(),
                                       "probs": [1.0 / k] * k}))
    code = cli.main(["verify", str(inst_path), str(scheme_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: utility: ") and err.count("\n") == 1
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# Fuzzed instance and scheme files
# ---------------------------------------------------------------------------

_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 4),
              st.floats(allow_nan=True, allow_infinity=True),
              st.sampled_from(["", "bogus", "inf", "ex_post", "max_linear"])),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=6)


def _nodes(doc, path=()):
    """Every (path, value) inside a JSON document, the root included."""
    yield path, doc
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _nodes(value, path + (key,))


@st.composite
def _instance_and_scheme(draw):
    """A valid instance file and full revelation as a scheme file, with up
    to three nodes of either replaced by arbitrary JSON (malformed shapes,
    non-finite numbers, unknown kinds, another k) or deleted."""
    k = draw(st.integers(2, 3))
    w = np.array(draw(st.lists(st.floats(0.2, 1.0), min_size=k, max_size=k)))
    prior = (w / w.sum()).tolist()
    ones = [1.0] * k
    kind = draw(st.sampled_from(["linear", "norm_distance", "entropy", "grouped_kl",
                                 "neg_min_weighted", "bump"]))
    params = {"linear": {"coeffs": ones}, "norm_distance": {"order": 1},
              "entropy": {}, "neg_min_weighted": {"weights": ones},
              "grouped_kl": {"partition": [[i] for i in range(k)], "scale": 1.0,
                             "refs": prior},
              "bump": {"center": prior, "radius": 0.5}}[kind]
    utilities = [{"kind": "max_linear", "coeffs": np.eye(k).tolist()},
                 {"kind": "piecewise_constant",
                  "pieces": [{"vertices": np.eye(k).tolist(), "value": 1.0}]}]
    if k == 2:  # one bidder with two types; profile_cap 0 takes the Monte Carlo path
        utilities.append({"kind": "auction_welfare", "auction": {
            "bidders": [[{"weight": 0.5, "v0": 0.0, "v1": 1.0}] * 2],
            "profile_cap": draw(st.sampled_from([0, 10])), "mc_seed": 1}})
    instance = {"k": k, "prior": prior, "utility": draw(st.sampled_from(utilities)),
                "constraints": [{"kind": kind, "params": params,
                                 "bound": draw(st.floats(0.0, 1.5)),
                                 "mode": draw(st.sampled_from(["ex_ante", "ex_post"]))}]}
    # A JSON round trip unshares the lists used twice above, so a mutation
    # lands in one place.
    files = json.loads(json.dumps([instance, {"support": np.eye(k).tolist(),
                                              "probs": prior}]))
    for _ in range(draw(st.integers(0, 3))):
        path, _ = draw(st.sampled_from(list(_nodes(files))[1:]))
        parent = files
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(_JSON)
    return files


_FUZZ_BASE = {"k": 2, "prior": [0.5, 0.5],
              "utility": {"kind": "max_linear", "coeffs": [[1.0, 0.0], [0.0, 1.0]]}}
_FUZZ_SCHEME = {"support": [[1.0, 0.0], [0.0, 1.0]], "probs": [0.5, 0.5]}
_FUZZ_AUCTION = {"kind": "auction_welfare", "auction": {
    "bidders": [[{"weight": 0.5, "v0": 0.0, "v1": 1.0}] * 2], "profile_cap": 0,
    "mc_seed": "x"}}


def _fuzz_piece(vertex):
    return {"kind": "piecewise_constant",
            "pieces": [{"vertices": [[1.0, 0.0], vertex], "value": 1.0}]}


# Each example ended in a traceback or ran out of memory before: constraints
# that are not a list, a (2, 0) coefficient array, params that are not an
# object, an infinite integer field, a Monte Carlo seed that is not a
# nonnegative integer, a piece reaching outside the simplex, a steep
# constraint that refined a piecewise utility past the vertex cap, and a
# bound so far below zero that the simplex ratio test overflowed.
@settings(max_examples=150, deadline=None, derandomize=True)
@given(_instance_and_scheme())
@example([{**_FUZZ_BASE, "constraints": None}, _FUZZ_SCHEME])
@example([{**_FUZZ_BASE, "constraints": [{"kind": "linear", "bound": 0.0,
                                          "params": {"coeffs": [[], []]}}]},
          _FUZZ_SCHEME])
@example([{**_FUZZ_BASE, "constraints": [{"kind": "norm_distance", "bound": 0.0,
                                          "params": None}]}, _FUZZ_SCHEME])
@example([{**_FUZZ_BASE, "k": math.inf}, _FUZZ_SCHEME])
@example([{**_FUZZ_BASE, "utility": _FUZZ_AUCTION}, _FUZZ_SCHEME])
@example([{**_FUZZ_BASE, "utility": _fuzz_piece([1.0, -1e16])}, _FUZZ_SCHEME])
@example([{**_FUZZ_BASE, "utility": _fuzz_piece([0.0, 1.0]),
           "constraints": [{"kind": "linear", "bound": 0.4,
                            "params": {"coeffs": [1e277, 1.0]}}]}, _FUZZ_SCHEME])
@example([{**_FUZZ_BASE, "constraints": [{"kind": "entropy",
                                          "bound": -1.7976931348623157e+308}]},
          _FUZZ_SCHEME])
def test_cli_fuzzed_files_exit_cleanly(files):
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, name) for name in ("instance.json", "scheme.json")]
        for path, doc in zip(paths, files):
            with open(path, "w") as fh:
                json.dump(doc, fh)
        for argv in (["solve", paths[0], "--eps", "0.5"], ["verify", *paths],
                     ["convert", *paths]):
            err = io.StringIO()
            with mock.patch.dict(os.environ, {"PERSUADE_GRID_CAP": "20000"}), \
                    contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                code = cli.main(argv)
            assert code in (0, 1, 2), argv
            assert err.getvalue().count("\n") <= 1, err.getvalue()
            assert "Traceback" not in err.getvalue()
