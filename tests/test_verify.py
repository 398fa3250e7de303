"""Claim checkers: targeted behaviors beyond the acceptance runs."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

import fatpoints.verify as verify
from fatpoints import (
    GeneralPointStrategy,
    SearchSpace,
    example_quartic_config,
    random_config,
)
from fatpoints.verify import (
    check_cubic_nonexistence,
    check_dejonquieres,
    check_example_equivalences,
    check_family_emptiness,
    check_fermat3_combinatorics,
    check_hessian_certificate,
    check_oracle_coherence,
    check_superset_persistence,
    check_two_and_four,
    check_two_and_four_corpus,
    check_w5_splitting,
    run_paper_suite,
    search_uniqueness,
)

# the suite's JSON for seed 0 without runtimes, sampled, and three records of
# the certified run; of these only the two that carry a mode field differ
DATA = Path(__file__).parent / "data"
SAMPLED = DATA / "suite_seed0.json"
CERTIFIED = DATA / "suite_seed0_certify.json"


def test_hessian_certificate_passes_symbolically():
    res = check_hessian_certificate()
    assert res.passed
    assert res.details["hessian determinant is zero polynomial"]
    assert res.details["rank of (G1,G2,G3) at (a,b)=(5,7)"] == 3


def test_two_and_four_skips_invalid_instance():
    Z = random_config(9, 50, "no-rich-line")
    res = check_two_and_four(Z, 4)
    assert res.status == "skipped"


def test_two_and_four_small_corpora():
    for d in (3, 4):
        res = check_two_and_four_corpus(d, count=12, seed=5)
        assert res.passed
        assert res.details["instances"] == 12


def test_two_and_four_on_seven_point_family():
    # the seven-point cubic family always carries a 3-rich line and a simple
    # line meeting off the set, so the d=3 emptiness check applies directly
    from fatpoints import family
    from fractions import Fraction

    for a in (Fraction(2), Fraction(-1), Fraction(1, 3)):
        res = check_two_and_four(family("figure2-cubic", {"a": a}), 3)
        assert res.status == "pass"
        assert res.details["generic dim"] == 0


def test_family_emptiness_prop31_candidates():
    # including the surviving candidate pair later refuted by the third
    # specialization
    for params in ({"a": 3, "b": 5}, {"a": Fraction(-1, 2), "b": Fraction(1, 4)}):
        res = check_family_emptiness("prop31", params, 4)
        assert res.passed
        assert res.details["unexpected"] is False


def test_family_emptiness_excluded_pair_is_the_example():
    res = check_family_emptiness("prop33-case3", {"a": -1, "b": 1}, 4)
    assert res.passed
    assert res.details["unexpected"] is True
    assert res.details["equivalent to the example configuration"] is True


def test_search_uniqueness_injected_example():
    space = SearchSpace(n=2, r=9, constraint="4-rich-line", seed=0, limit=5)
    res = search_uniqueness(space, inject=(example_quartic_config(),))
    assert res.passed
    assert res.details["hits"] >= 1
    assert res.details["hits"] == res.details["hits equivalent to example"]
    with pytest.raises(ValueError):
        search_uniqueness(SearchSpace(n=2, r=8, seed=0, limit=1))


def test_superset_and_dejonquieres_and_w5():
    assert check_superset_persistence().passed
    res = check_dejonquieres()
    assert res.passed
    assert res.details["degree bookkeeping 4*4-3^2-6"] == 1
    res = check_w5_splitting()
    assert res.passed
    assert res.details["2"]["m"][1] == 0 and res.details["2"]["m"][2] == 2


def test_cubic_nonexistence_small():
    res = check_cubic_nonexistence(n_random=25, seed=11)
    assert res.passed
    assert res.details["random7"] == 25
    assert res.details["figure2"] == 6
    assert res.details["conics5"] == 10


def test_oracle_coherence_small():
    res = check_oracle_coherence(count=8, seed=13)
    assert res.passed
    assert res.details["agreements"] == 8


def test_equivalence_claim():
    res = check_example_equivalences()
    assert res.passed
    assert res.details["example ~ F3"] is False


def test_claim_results_serialize():
    res = check_fermat3_combinatorics()
    blob = json.dumps(res.to_dict())
    assert "fermat3-combinatorics" in blob


def test_suite_claim_selection():
    results = run_paper_suite(claims=["hessian-certificate", "fermat3-combinatorics"])
    assert [r.claim for r in results] == ["hessian-certificate", "fermat3-combinatorics"]
    assert all(r.passed for r in results)
    with pytest.raises(ValueError):
        run_paper_suite(claims=["no-such-claim"])


def test_certify_reaches_exactly_the_certifiable_claims(monkeypatch):
    # every runner gets the run's one strategy: certified under certify,
    # sampled otherwise
    modes = {}

    def runner(claim):
        def run(seed, strategy):
            modes[claim] = strategy.mode
            return verify.ClaimResult(claim, "pass", {})

        return run

    monkeypatch.setattr(verify, "CLAIM_RUNNERS", {c: runner(c) for c in verify.SUITE_CLAIMS})
    for certify, mode in ((False, "sampled"), (True, "certified")):
        modes.clear()
        run_paper_suite(certify=certify)
        assert list(modes.items()) == [(c, mode) for c in verify.SUITE_CLAIMS]


def test_fermat5_runner_is_handed_the_run_strategy(monkeypatch):
    # no runner replaces the run's strategy: under certify, the positive at
    # d = 7 is proved on the grid over Q(zeta_5) too
    handed = []
    monkeypatch.setattr(verify, "check_fermat5_degree7", lambda s: handed.append(s))
    for mode in ("sampled", "certified"):
        strategy = GeneralPointStrategy(mode=mode, seed=5)
        verify.CLAIM_RUNNERS["fermat5-degree7"](5, strategy)
        assert handed[-1] is strategy
    assert len(handed) == 2


def test_certified_suite_matches_its_pins():
    # the certified half of the suite contract: every record of the whole
    # certified run is its sampled pin, except where a mode field says so
    results = run_paper_suite(certify=True)
    assert all(r.passed for r in results)
    certified = {r["claim"]: r for r in json.loads(CERTIFIED.read_text())}
    expected = [certified.get(r["claim"], r) for r in json.loads(SAMPLED.read_text())]
    modes = [r["details"]["mode"] for r in expected if "mode" in r["details"]]
    assert modes == ["certified", "certified"]
    reports = [{k: v for k, v in r.to_dict().items() if k != "runtime"} for r in results]
    assert json.loads(json.dumps(reports)) == expected


def test_checker_determinism():
    a = check_fermat3_combinatorics()
    b = check_fermat3_combinatorics()
    assert a.details == b.details
