"""CLI surface: JSON round-trips, exit codes, determinism, error envelope."""

import json
import time

from fatpoints import (
    QQ,
    PointConfiguration,
    apply_transform,
    example_quartic_config,
    random_config,
)
from fatpoints.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_round_trip(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "gen", "example-quartic")
    assert code == 0
    data = json.loads(out)
    assert PointConfiguration.from_dict(data) == example_quartic_config()
    code, out, _ = run_cli(capsys, "gen", "fermat", "--n", "3")
    assert code == 0
    data = json.loads(out)
    Z = PointConfiguration.from_dict(data)
    assert len(Z) == 9 and Z.field.conductor == 3
    assert PointConfiguration.from_dict(json.loads(json.dumps(Z.to_dict()))) == Z


def test_gen_family_and_domain_error(capsys):
    code, out, _ = run_cli(capsys, "gen", "family", "--id", "w5", "--params", "a=2")
    assert code == 0
    assert len(json.loads(out)["points"]) == 5
    code, _, err = run_cli(capsys, "gen", "family", "--id", "w5", "--params", "a=0")
    assert code == 3
    assert json.loads(err)["error"]["code"] == "domain"


def test_analyze_reports_rich_lines(tmp_path, capsys):
    cfg = tmp_path / "ex.json"
    cfg.write_text(json.dumps(example_quartic_config().to_dict()))
    code, out, _ = run_cli(capsys, "analyze", str(cfg))
    assert code == 0
    data = json.loads(out)
    assert data["lineStats"]["rich"]["4"] == 3
    assert data["systems"][3]["dim"] == 6


def test_analyze_one_point_configuration(tmp_path, capsys):
    cfg = tmp_path / "one.json"
    cfg.write_text(json.dumps(PointConfiguration(QQ, [[1, 2, 3]]).to_dict()))
    code, out, _ = run_cli(capsys, "analyze", str(cfg))
    assert code == 0
    data = json.loads(out)
    assert data["lineStats"] == {"simple": 0, "rich": {}, "lines": []}
    assert [(s["degree"], s["dim"]) for s in data["systems"]] == [(1, 2), (2, 5), (3, 9), (4, 14)]


def test_unexpected_command(tmp_path, capsys):
    cfg = tmp_path / "ex.json"
    cfg.write_text(json.dumps(example_quartic_config().to_dict()))
    code, out, _ = run_cli(capsys, "unexpected", str(cfg), "-d", "4")
    assert code == 0
    rep = json.loads(out)
    assert rep["unexpected"] is True and rep["genericDim"] == 1
    code, _, err = run_cli(capsys, "unexpected", str(cfg), "-d", "1")
    assert code == 2
    assert json.loads(err)["error"]["code"] == "flags"


def test_unexpected_deterministic_output(tmp_path, capsys):
    cfg = tmp_path / "ex.json"
    cfg.write_text(json.dumps(example_quartic_config().to_dict()))
    _, out1, _ = run_cli(capsys, "unexpected", str(cfg), "-d", "4", "--seed", "3")
    _, out2, _ = run_cli(capsys, "unexpected", str(cfg), "-d", "4", "--seed", "3")
    assert out1 == out2


def test_splitting_command(tmp_path, capsys):
    cfg = tmp_path / "f3.json"
    run_cli(capsys, "gen", "fermat", "--n", "3")  # warm path
    code, out, _ = run_cli(capsys, "gen", "fermat", "--n", "3")
    cfg.write_text(out)
    code, out, _ = run_cli(capsys, "splitting", str(cfg))
    assert code == 0
    st = json.loads(out)
    assert st["balanced"] is True and st["aZ"] == 4


def test_equiv_command(tmp_path, capsys):
    Z = example_quartic_config()
    image = apply_transform([[1, 1, 0], [0, 1, 0], [2, 0, 1]], Z)
    f1 = tmp_path / "a.json"
    f2 = tmp_path / "b.json"
    f1.write_text(json.dumps(Z.to_dict()))
    f2.write_text(json.dumps(image.to_dict()))
    code, out, _ = run_cli(capsys, "equiv", str(f1), str(f2))
    assert code == 0
    data = json.loads(out)
    assert data["equivalent"] is True
    assert "witness" in data


def test_equiv_collinear_sets_is_an_input_error(tmp_path, capsys):
    line = {"field": {"type": "rational"}, "points": [[t, 2 * t + 1, 1] for t in range(4)]}
    other = {"field": {"type": "rational"}, "points": [[t, 0, 1] for t in (0, 1, 3, 7)]}
    f1 = tmp_path / "a.json"
    f2 = tmp_path / "b.json"
    f1.write_text(json.dumps(line))
    f2.write_text(json.dumps(other))
    code, _, err = run_cli(capsys, "equiv", str(f1), str(f2))
    assert code == 3
    assert json.loads(err)["error"]["code"] == "input"
    assert "Traceback" not in err


def test_search_reports_measured_runtime(capsys):
    code, out, _ = run_cli(capsys, "search", "--limit", "3", "--inject-example")
    assert code == 0
    res = json.loads(out)
    assert res["details"]["hits"] == 1
    assert res["runtime"] > 0


def test_verify_selected_claims(tmp_path, capsys):
    out_file = tmp_path / "results.json"
    code, _, err = run_cli(
        capsys,
        "verify",
        "--suite",
        "paper",
        "--claims",
        "hessian-certificate,fermat3-combinatorics",
        "--out",
        str(out_file),
    )
    assert code == 0
    results = json.loads(out_file.read_text())
    assert {r["claim"] for r in results} == {"hessian-certificate", "fermat3-combinatorics"}
    assert all(r["status"] == "pass" for r in results)
    assert "pass" in err


def test_input_errors(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    code, _, err = run_cli(capsys, "analyze", str(missing))
    assert code == 3
    assert json.loads(err)["error"]["code"] == "io"
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "analyze", str(bad))
    assert code == 3
    assert json.loads(err)["error"]["code"] == "parse"
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"field": {"type": "rational"}, "points": []}))
    code, _, err = run_cli(capsys, "analyze", str(empty))
    assert code == 3
    assert json.loads(err)["error"]["code"] == "config"


def test_out_of_budget_input_is_refused_at_once(tmp_path, capsys):
    one = tmp_path / "one.json"
    one.write_text(json.dumps(PointConfiguration(QQ, [[1, 2, 3]]).to_dict()))
    fifteen = tmp_path / "fifteen.json"
    fifteen.write_text(json.dumps(random_config(15, 100, "budget").to_dict()))
    for argv in (
        ("unexpected", str(one), "-d", "40"),  # 781 x 861 cells
        ("analyze", str(one), "--max-degree", "200"),  # 1 x 20,301
        ("splitting", str(fifteen)),  # 120 x 136
    ):
        start = time.process_time()
        code, out, err = run_cli(capsys, *argv)
        assert time.process_time() - start < 1.0
        assert (code, out) == (3, "")
        assert json.loads(err)["error"]["code"] == "budget"


def test_usage_error_exit_code(capsys):
    assert main(["unexpected"]) == 2  # missing required arguments
