"""CLI surface: JSON round-trips, exit codes, determinism, error envelope."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import fatpoints
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


def test_gen_family_passes_its_parameters_as_given(capsys):
    # the parameters reach configs.family as the strings given, and are
    # coerced there once, so family's own order of checks decides the error:
    # a missing parameter before a malformed one, an unknown family before
    # either; every error keeps exit code 3 and its code field
    errors = (
        (("--id", "prop31", "--params", "a=foo"), "input", "family 'prop31' needs the parameter 'b'"),
        (("--id", "prop31", "--params", "a=foo,b=1"), "input", "bad rational literal 'foo'"),
        (("--id", "nope", "--params", "a=foo"), "input", "unknown family 'nope'"),
        (("--id", "example-quartic", "--params", "a=foo"), "input", "bad rational literal 'foo'"),
        (("--id", "w5", "--params", "a=2,c=1/0"), "input", "zero denominator in scalar literal '1/0'"),
        (("--id", "prop33-first", "--params", "a=z"), "input", "bad rational literal 'z'"),
        (("--id", "prop31", "--params", "a=0,b=1"), "domain",
         "excluded parameter value: prop31 needs a != 0 (R4 degenerates)"),
    )  # fmt: skip
    for argv, code_field, message in errors:
        code, _, err = run_cli(capsys, "gen", "family", *argv)
        assert code == 3, argv
        assert json.loads(err)["error"] == {"code": code_field, "message": message}
    code, out, _ = run_cli(capsys, "gen", "family", "--id", "prop33-first", "--params", "a=z", "--cyclotomic", "6")
    assert code == 0
    assert json.loads(out)["points"][5] == ["1", "z", "0"]


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


def test_conductor_two_is_legal_input(tmp_path, capsys):
    # Q(zeta_2) = Q: the family, its JSON and its verdict read as over Q
    runs = {}
    for flags in ((), ("--cyclotomic", "2")):
        code, out, _ = run_cli(capsys, "gen", "family", "--id", "w5", "--params", "a=2", *flags)
        assert code == 0
        cfg = tmp_path / f"w5{len(flags)}.json"
        cfg.write_text(out)
        code, rep, _ = run_cli(capsys, "unexpected", str(cfg), "-d", "3")
        assert code == 0
        runs[flags] = (json.loads(out), json.loads(rep))
    (cfg_q, rep_q), (cfg_2, rep_2) = runs.values()
    assert cfg_2["field"] == {"type": "cyclotomic", "n": 2}
    assert cfg_2["points"] == cfg_q["points"]
    assert rep_2 == rep_q


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


def test_equiv_of_two_triangles(tmp_path, capsys):
    a = {"field": {"type": "rational"}, "points": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}
    b = {"field": {"type": "rational"}, "points": [[1, 2, 3], [2, -1, 1], [0, 5, 7]]}
    f1 = tmp_path / "a.json"
    f2 = tmp_path / "b.json"
    f1.write_text(json.dumps(a))
    f2.write_text(json.dumps(b))
    code, out, err = run_cli(capsys, "equiv", str(f1), str(f2))
    assert code == 0 and not err
    data = json.loads(out)
    assert data["equivalent"] is True
    assert len(data["witness"]) == 3


def test_equiv_budget(tmp_path, capsys):
    # configurations up to MAX_EQUIV_POINTS = 20 points are compared; a
    # configuration above it, on either side, is refused before any geometry
    def config(name, Z):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(Z.to_dict()))
        return str(path)

    M = [[2, -1, 1], [1, 1, 0], [0, 3, 1]]
    twenty = random_config(20, 100, "equiv-budget")
    code, out, err = run_cli(
        capsys, "equiv", config("twenty", twenty), config("image", apply_transform(M, twenty))
    )
    assert code == 0 and not err
    assert json.loads(out)["equivalent"] is True
    one_more = config("twentyone", random_config(21, 100, "equiv-budget"))
    for argv in (
        ("equiv", one_more, one_more),
        ("equiv", config("nine", example_quartic_config()), one_more),
    ):
        start = time.process_time()
        code, out, err = run_cli(capsys, *argv)
        assert time.process_time() - start < 1.0
        assert (code, out) == (3, "")
        assert json.loads(err)["error"]["code"] == "budget"


def test_search_reports_measured_runtime(capsys):
    code, out, _ = run_cli(capsys, "search", "--limit", "3", "--inject-example")
    assert code == 0
    res = json.loads(out)
    assert res["details"]["hits"] == 1
    assert res["runtime"] > 0


def test_search_budget(capsys):
    # grid sides up to MAX_SEARCH_SIDE = 10 and limits up to MAX_SEARCH_LIMIT
    # = 3,000 are searched (side 2 has one nine-point subset, so its search
    # ends at once); a side or a limit above is refused before any geometry
    for argv in (("--n", "10", "--limit", "2"), ("--n", "2", "--limit", "3000")):
        code, out, err = run_cli(capsys, "search", *argv)
        assert code == 0 and not err
        assert json.loads(out)["details"]["tested"] <= 2
    for argv in (
        ("--n", "11"),
        ("--n", "40", "--limit", "5"),
        ("--limit", "3001"),
        ("--limit", "30000"),
    ):
        start = time.process_time()
        code, out, err = run_cli(capsys, "search", *argv)
        assert time.process_time() - start < 1.0
        assert (code, out) == (3, ""), argv
        assert json.loads(err)["error"]["code"] == "budget"


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
    def config(name, field, points):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"field": field, "points": points}))
        return str(path)

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rational, zeta3 = {"type": "rational"}, {"type": "cyclotomic", "n": 3}
    frame = [[0, 1, 0], [1, 1, 1]]
    zero_denominator = config("zero-denominator", rational, [["1/0", "0", "1"]] + frame)
    zeta3_zero_denominator = config("zeta3-zero-denominator", zeta3, [["2/0*z", "0", "1"]] + frame)
    # (argv, error code, a fragment of the message); each ends in one JSON
    # error object on stderr and exit code 3, never in a traceback
    for argv, error, fragment in (
        (("analyze", str(tmp_path / "nope.json")), "io", "cannot read"),
        (("analyze", str(bad)), "parse", "line 1"),
        (("analyze", config("empty", rational, [])), "config", "points"),
        (("gen", "family", "--id", "w5"), "input", "family 'w5' needs the parameter 'a'"),
        (
            ("gen", "family", "--id", "prop31", "--params", "a=2"),
            "input",
            "family 'prop31' needs the parameter 'b'",
        ),
        (("gen", "family", "--id", "w5", "--params", "a=2/0"), "input", "zero denominator"),
        (
            ("gen", "family", "--id", "w5", "--params", "a=3/0*z", "--cyclotomic", "3"),
            "input",
            "zero denominator",
        ),
        (("analyze", zero_denominator), "config", "zero denominator"),
        (("unexpected", zero_denominator, "-d", "4"), "config", "zero denominator"),
        (("unexpected", zeta3_zero_denominator, "-d", "2"), "config", "zero denominator"),
        (("analyze", config("field-q", "q", [[1, 0, 0]] + frame)), "config", "field descriptor"),
        (("search", "--limit", "-1"), "input", "limit"),
        (("search", "--limit", "0"), "input", "limit"),
        (("search", "--n", "1", "--points", "9"), "input", "grid of 4"),
        (("analyze", config("zeta-2.5", {"type": "cyclotomic", "n": 2.5}, frame)), "config", "2.5"),
        (("analyze", config("zeta-true", {"type": "cyclotomic", "n": True}, frame)), "config", "True"),
        (("analyze", config("zeta-1e9", {"type": "cyclotomic", "n": 1e9}, frame)), "config", "1000000000.0"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, ""), argv
        assert list(json.loads(err)) == ["error"], argv
        assert json.loads(err)["error"]["code"] == error, argv
        assert fragment in json.loads(err)["error"]["message"], argv


def test_out_of_budget_input_is_refused_at_once(tmp_path, capsys):
    one = tmp_path / "one.json"
    one.write_text(json.dumps(PointConfiguration(QQ, [[1, 2, 3]]).to_dict()))
    fifteen = tmp_path / "fifteen.json"
    fifteen.write_text(json.dumps(random_config(15, 100, "budget").to_dict()))
    many = tmp_path / "many.json"
    many.write_text(json.dumps(random_config(142, 1000, "budget").to_dict()))
    for argv in (
        ("unexpected", str(one), "-d", "40"),  # 781 x 861 cells
        ("analyze", str(one), "--max-degree", "200"),  # 1 x 20,301
        ("splitting", str(fifteen)),  # 120 x 136
        ("analyze", str(one), "--max-degree", "40"),  # its basis: 861 x 861
        ("analyze", str(many), "--max-degree", "1"),  # its line statistics: C(142, 2) joins
        ("gen", "random", "--points", "3334", "--height", "100"),  # 10,000 // 3 + 1
        ("unexpected", str(one), "-d", "4", "--samples", "101"),
    ):
        start = time.process_time()
        code, out, err = run_cli(capsys, *argv)
        assert time.process_time() - start < 1.0
        assert (code, out) == (3, "")
        assert json.loads(err)["error"]["code"] == "budget"


def test_conductor_budget(tmp_path, capsys):
    # conductors up to MAX_CONDUCTOR = 128 are built; one above is refused
    # before its field is, from a file and from each generator flag
    def config(n):
        path = tmp_path / f"zeta{n}.json"
        field = {"type": "cyclotomic", "n": n}
        path.write_text(json.dumps({"field": field, "points": [[1, 0, 0], [0, 1, 0], [1, 1, 1]]}))
        return str(path)

    code, out, _ = run_cli(capsys, "analyze", config(128), "--max-degree", "1")
    assert code == 0 and json.loads(out)["field"] == {"type": "cyclotomic", "n": 128}
    code, out, _ = run_cli(capsys, "gen", "family", "--id", "w5", "--params", "a=2", "--cyclotomic", "128")
    assert code == 0 and json.loads(out)["field"]["n"] == 128
    for argv in (
        ("analyze", config(129)),
        ("analyze", config(16001)),
        ("gen", "fermat", "--n", "129"),
        ("gen", "family", "--id", "fermat", "--n", "129"),
        ("gen", "family", "--id", "w5", "--params", "a=2", "--cyclotomic", "129"),
    ):
        start = time.process_time()
        code, out, err = run_cli(capsys, *argv)
        assert time.process_time() - start < 1.0
        assert (code, out) == (3, "")
        assert json.loads(err)["error"]["code"] == "budget"


def _run_cli_process(*argv, cwd):
    # a child process with a timeout, so that an unbounded run fails the
    # test instead of hanging the suite
    src = str(Path(fatpoints.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-m", "fatpoints.cli", *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=10,
    )


def test_point_boxes_too_small_are_input_errors(tmp_path):
    box = tmp_path / "box.json"
    points = [[x, y, 1] for x in range(-2, 3) for y in range(-2, 3)]
    box.write_text(json.dumps(PointConfiguration(QQ, points).to_dict()))
    for argv in (
        ("gen", "random", "--points", "10", "--height", "1"),  # 10 > 3^2 points
        # box all of Z, and dim I(Z)_5 = 2 above the floor 0 needs a sample
        ("unexpected", str(box), "--degree", "5", "--height", "2"),
    ):
        done = _run_cli_process(*argv, cwd=tmp_path)
        assert (done.returncode, done.stdout) == (3, "")
        assert json.loads(done.stderr)["error"]["code"] == "input"
    # dim I(Z)_3 = 0 is the floor, proved with no sample; a certified report
    # is proved on the grid where sampled mode has no sample point
    for argv, dim_z, certified in (
        (("--degree", "3"), 0, False),
        (("--degree", "5", "--certify"), 2, True),
    ):
        done = _run_cli_process("unexpected", str(box), *argv, "--height", "2", cwd=tmp_path)
        assert (done.returncode, done.stderr) == (0, "")
        rep = json.loads(done.stdout)
        assert (rep["dimZ"], rep["genericDim"], rep["certified"]) == (dim_z, 0, certified)
        assert rep["samples"] == [] and not rep["unexpected"]


def test_usage_error_exit_code(capsys):
    assert main(["unexpected"]) == 2  # missing required arguments
