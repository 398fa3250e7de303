"""The complete reproduction suite must pass end to end."""

import json
from pathlib import Path

import pytest

import fatpoints.geom as geom
import fatpoints.linsys as linsys
import fatpoints.poly as poly
from fatpoints.cli import main
from fatpoints.verify import SUITE_CLAIMS, run_paper_suite

# the suite's JSON for seed 0 with runtimes removed: the output contract
EXPECTED = Path(__file__).parent / "data" / "suite_seed0.json"


def test_full_paper_suite_passes():
    results = run_paper_suite(seed=0)
    assert [r.claim for r in results] == list(SUITE_CLAIMS)
    failed = [r.claim for r in results if not r.passed]
    assert not failed, f"failing claims: {failed}"
    # the rich-line emptiness corpora must reach the contracted volume
    by_claim = {r.claim: r for r in results}
    assert by_claim["two-and-four-d3"].details["instances"] >= 100
    assert by_claim["two-and-four-d4"].details["instances"] >= 100
    assert by_claim["cubic-nonexistence"].details["random7"] == 500
    assert by_claim["quartic-uniqueness-random"].details["instances"] == 200
    assert by_claim["quartic-uniqueness-grid"].details["hits"] >= 1
    reports = [{k: v for k, v in r.to_dict().items() if k != "runtime"} for r in results]
    assert json.loads(json.dumps(reports)) == json.loads(EXPECTED.read_text())


@pytest.mark.parametrize("certify", [False, True])
def test_warm_memos_change_no_output(tmp_path, certify, capsys, monkeypatch):
    # the second run of the suite in one process reads point rows and joins
    # from the memos the first filled (both start empty), and eliminations
    # resume after rows an earlier verdict left: its JSON, runtimes removed,
    # must be the first's, byte for byte
    verdicts, resumed, eliminate = {}, [0, 0], poly._eliminate

    def tracked(M, p, image, key, slack, store):
        # the verdict is its shared_certificates store; a resume across
        # verdicts starts with the first row of another verdict's elimination
        verdict, last = poly._shared.get(), store.get(key)
        if last is not None and verdicts.get(key) is not verdict and last[2] and last[0][:1] == M.row_keys()[:1]:
            resumed[run] += 1
        verdicts[key] = verdict
        return eliminate(M, p, image, key, slack, store)

    monkeypatch.setattr(poly, "_eliminate", tracked)
    outputs = []
    for run in range(2):
        out = tmp_path / f"run{run}.json"
        argv = ["verify", "--suite", "paper", "--seed", "0", "--out", str(out)]
        assert main(argv + ["--certify"] * certify) == 0
        reports = [{k: v for k, v in r.items() if k != "runtime"} for r in json.loads(out.read_text())]
        outputs.append(json.dumps(reports))
    capsys.readouterr()
    assert linsys._point_rows.cache_info().hits > 0
    assert geom._joined.cache_info().hits > 0
    assert min(resumed) > 0
    assert outputs[0] == outputs[1]
