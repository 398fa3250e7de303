"""The complete reproduction suite must pass end to end."""

import json
from pathlib import Path

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
