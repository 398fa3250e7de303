"""Per-claim checkers for the reproduction suite.

Every theorem-level statement is verified on an explicitly named corpus of
instances, never asserted as proven; each ClaimResult records what was
tested and carries any offending instance on failure.  The one identity
checked fully symbolically is the vanishing of the second-partials
determinant of the three reducible quartics at the general double point.

The suite gives every checker that takes a general point the run's one
strategy.  Under certify its verdicts are proved: a negative by a sample
that meets the condition count, a positive on the symbolic grid.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from itertools import chain

from .field import QQ, make_field, primitive_root
from .geom import (
    PointConfiguration,
    ProjectivePoint,
    _cross,
    analyze_lines,
    mat3_det,
    projective_equivalent,
)
from .linsys import (
    FatPointScheme,
    dim_linear_system,
    rational_map_image,
    system_basis,
)
from .poly import (
    ExactMatrix,
    Form,
    ParamRing,
    evaluate,
    exact_rank,
    partial_derivative,
    product,
)
from .unexpected import (
    DEFAULT_STRATEGY,
    GeneralPointStrategy,
    detect_unexpected,
    fermat_degrees,
    generic_dim,
    splitting_type,
)
from .configs import (
    SearchSpace,
    dual_fermat,
    example_quartic_config,
    example_quartic_variant,
    family,
    grid_configs,
    random_config,
)
from .configs import _prop33_case3_points


@dataclass
class ClaimResult:
    """Outcome of one checker run."""

    claim: str
    status: str  # pass | fail | skipped
    details: dict
    runtime: float = 0.0
    failures: list = dc_field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_dict(self) -> dict:
        return {
            "claim": self.claim,
            "status": self.status,
            "details": self.details,
            "runtime": round(self.runtime, 3),
            "failures": self.failures,
        }


def _judged(claim: str, details, failures: list) -> ClaimResult:
    """The one pass/fail rule: a claim passes iff it records no failure."""
    return ClaimResult(claim, "fail" if failures else "pass", details, failures=failures)


# ---------------------------------------------------------------------------
# symbolic certificate for the unexpected quartic
# ---------------------------------------------------------------------------


def check_hessian_certificate() -> ClaimResult:
    """The three reducible quartics through the nine points with a double
    point at a symbolic P = [a, b, 1] are each singular at P, are linearly
    independent, and their second-partials determinant vanishes identically."""
    ring = ParamRing(QQ)
    Z = example_quartic_config()
    P = (ring.a, ring.b, ring.one)
    lifted = [tuple(ring.coerce(c) for c in p.coeffs) for p in Z.points]
    # lines of the configuration: Z1Z3 -> y, Z2Z4 -> x, Z6Z7 -> z
    L1 = Form.variable(ring, "y")
    L2 = Form.variable(ring, "x")
    L3 = Form.variable(ring, "z")
    M = {j: Form.linear(ring, _cross(P, lifted[j - 1])) for j in range(1, 10)}
    G1 = product([L1, L2, M[6], M[7]])
    G2 = product([L1, L3, M[2], M[4]])
    G3 = product([L2, L3, M[1], M[3]])
    details: dict = {}
    failures = []
    for name, G in (("G1", G1), ("G2", G2), ("G3", G3)):
        for pt_idx, pt in enumerate(lifted, start=1):
            if not evaluate(G, pt).is_zero():
                failures.append(f"{name} does not vanish at Z{pt_idx}")
        gx = partial_derivative(G, "x")
        gy = partial_derivative(G, "y")
        singular = (
            evaluate(G, P).is_zero()
            and evaluate(gx, P).is_zero()
            and evaluate(gy, P).is_zero()
        )
        details[f"{name}@P singular"] = singular
        if not singular:
            failures.append(f"{name} is not singular at the symbolic point")
    rows = []
    for first, second in (("x", "x"), ("x", "y"), ("y", "y")):
        row = []
        for G in (G1, G2, G3):
            gg = partial_derivative(partial_derivative(G, first), second)
            row.append(evaluate(gg, P))
        rows.append(row)
    det = mat3_det(rows)
    details["hessian determinant is zero polynomial"] = det.is_zero()
    if not det.is_zero():
        failures.append(f"nonzero determinant: {det}")
    spec = [[c.evaluate(QQ.scalar(5), QQ.scalar(7)) for c in G.coeffs] for G in (G1, G2, G3)]
    rank = exact_rank(ExactMatrix(QQ, spec))
    details["rank of (G1,G2,G3) at (a,b)=(5,7)"] = rank
    if rank != 3:
        failures.append("G1, G2, G3 are not independent at (a,b)=(5,7)")
    return _judged("hessian-certificate", details, failures)


# ---------------------------------------------------------------------------
# rich-line emptiness checks
# ---------------------------------------------------------------------------


def _two_and_four_hypothesis(Z: PointConfiguration, d: int):
    """Find a d-rich line and a simple line meeting off Z, if any."""
    if len(Z) != 2 * d + 1:
        return None
    stats = analyze_lines(Z)
    # two lines of the inventory meet on Z iff they share a point of Z
    for lq, iq in stats.k_rich_lines(d):
        for lr, ir in stats.k_rich_lines(2):
            if set(iq).isdisjoint(ir):
                return lq, lr
    return None


def check_two_and_four(Z: PointConfiguration, d: int, strategy=DEFAULT_STRATEGY) -> ClaimResult:
    """On instances with a d-rich line and a simple line meeting off Z,
    the system with a general (d-1)-fold point is empty."""
    hyp = _two_and_four_hypothesis(Z, d)
    if hyp is None:
        return ClaimResult(
            "two-and-four",
            "skipped",
            {"reason": "structural hypothesis does not hold", "degree": d},
        )
    dim = generic_dim(Z, d - 1, d, strategy)
    failures = [] if dim == 0 else [Z.to_dict()]
    return _judged("two-and-four", {"degree": d, "generic dim": dim}, failures)


def _two_and_four_instances(d: int, count: int, seed):
    """Seeded stream of structurally valid instances for the rich-line check."""
    rng = random.Random(f"fatpoints:twofour:{seed}:{d}")
    made = 0
    while made < count:
        # d points on a random line, d+1 points off it
        x0, y0 = rng.randint(-20, 20), rng.randint(-20, 20)
        dx, dy = rng.randint(-9, 9), rng.randint(-9, 9)
        if dx == 0 and dy == 0:
            continue
        ts = rng.sample(range(-12, 13), d)
        pts = [(x0 + t * dx, y0 + t * dy, 1) for t in ts]
        while len(pts) < 2 * d + 1:
            cand = (rng.randint(-20, 20), rng.randint(-20, 20), 1)
            if cand not in pts:
                pts.append(cand)
        try:
            Z = PointConfiguration(QQ, pts)
        except ValueError:
            continue
        if _two_and_four_hypothesis(Z, d) is None:
            continue
        made += 1
        yield Z


def check_two_and_four_corpus(
    d: int, count: int = 100, seed=0, strategy=DEFAULT_STRATEGY
) -> ClaimResult:
    failures = []
    tested = 0
    for Z in _two_and_four_instances(d, count, seed):
        res = check_two_and_four(Z, d, strategy)
        tested += 1
        if res.status == "fail":
            failures.extend(res.failures)
    return _judged(f"two-and-four-d{d}", {"degree": d, "instances": tested}, failures)


# ---------------------------------------------------------------------------
# family emptiness
# ---------------------------------------------------------------------------


def check_family_emptiness(
    family_id: str, params: dict, d: int, strategy=DEFAULT_STRATEGY
) -> ClaimResult:
    """Family instances admit no unexpected curve of degree d; the excluded
    pair {a,b} = {-1,1} of the two-parameter nine-point family is the one
    exception and must rebuild the unexpected quartic."""
    claim = f"family-emptiness-{family_id}"
    excluded_pair = False
    if family_id == "prop33-case3":
        f = QQ
        a = f.scalar(params["a"])
        b = f.scalar(params["b"])
        if {a, b} == {f.one, -f.one}:
            excluded_pair = True
            Z = PointConfiguration(f, _prop33_case3_points(f, a, b))
    if not excluded_pair:
        Z = family(family_id, params)
    rep = detect_unexpected(Z, d, strategy)
    expected = excluded_pair
    details = {
        "family": family_id,
        "params": {k: str(v) for k, v in params.items()},
        "degree": d,
        "unexpected": rep.unexpected,
        "expected verdict": expected,
        "mode": strategy.mode,
    }
    failures = []
    if rep.unexpected != expected:
        failures.append(Z.to_dict())
    if excluded_pair and rep.unexpected:
        eq, _ = projective_equivalent(Z, example_quartic_config())
        details["equivalent to the example configuration"] = eq
        if not eq:
            failures.append(Z.to_dict())
    return _judged(claim, details, failures)


# ---------------------------------------------------------------------------
# cubic / conic nonexistence corpora
# ---------------------------------------------------------------------------


def _unexpected_instances(configs, d: int, strategy) -> list:
    """The to_dict of every configuration with an unexpected curve of degree d."""
    return [Z.to_dict() for Z in configs if detect_unexpected(Z, d, strategy).unexpected]


def check_cubic_nonexistence(n_random: int = 500, seed=1, strategy=DEFAULT_STRATEGY) -> ClaimResult:
    """No tested set of points admits an unexpected cubic (or conic)."""
    random7 = [random_config(7, 1000, (seed, i)) for i in range(n_random)]
    f6 = make_field("cyclotomic", 6)
    fig2_params = [Fraction(2), Fraction(3), Fraction(-2), Fraction(1, 2), Fraction(-1)]
    figure2 = [family("figure2-cubic", {"a": a}) for a in fig2_params + [primitive_root(f6)]]
    conics5 = [random_config(5, 1000, (seed, "conic", i)) for i in range(10)]
    failures = (
        _unexpected_instances(random7, 3, strategy)
        + _unexpected_instances(figure2, 3, strategy)
        + _unexpected_instances(conics5, 2, strategy)
    )
    tested = {"random7": len(random7), "figure2": len(figure2), "conics5": len(conics5)}
    return _judged("cubic-nonexistence", tested, failures)


# ---------------------------------------------------------------------------
# de Jonquieres collinearity
# ---------------------------------------------------------------------------


def check_dejonquieres(seeds=(0, 1, 2, 3, 4)) -> ClaimResult:
    """The degree-four map with centers 3P + Z1..Z6 sends Z7, Z8, Z9 to
    collinear points, for seeded random rational P."""
    Z = example_quartic_config()
    details: dict = {"degree bookkeeping 4*4-3^2-6": 4 * 4 - 3 * 3 - 6}
    failures = []
    if details["degree bookkeeping 4*4-3^2-6"] != 1:
        failures.append("degree bookkeeping is off")
    basis_dims = []
    collinear = []
    for s in seeds:
        P = GeneralPointStrategy(seed=s).sample_point(QQ, 0, avoid=set(Z.points))
        X = FatPointScheme(QQ, [(P, 3)] + [(p, 1) for p in Z.points[:6]])
        basis = system_basis(X, 4)
        basis_dims.append(len(basis))
        if len(basis) != 3:
            failures.append({"seed": s, "basis dim": len(basis)})
            continue
        images = [rational_map_image(basis, q) for q in Z.points[6:]]
        det = mat3_det(tuple(q.coeffs for q in images))
        collinear.append(det.is_zero())
        if not det.is_zero():
            failures.append({"seed": s, "determinant": str(det)})
    details["basis dims"] = basis_dims
    details["collinear"] = collinear
    return _judged("dejonquieres", details, failures)


# ---------------------------------------------------------------------------
# uniqueness searches
# ---------------------------------------------------------------------------


def search_uniqueness(space: SearchSpace, inject=(), strategy=DEFAULT_STRATEGY) -> ClaimResult:
    """Every unexpected-quartic hit in the stream is projectively equivalent
    to the nine-point example configuration."""
    if space.r != 9:
        raise ValueError("the uniqueness search runs on nine-point configurations")
    example = example_quartic_config()
    inject = tuple(inject)
    tested = 0
    hits = 0
    equivalent = 0
    failures = []
    for Z in chain(inject, grid_configs(space)):
        tested += 1
        rep = detect_unexpected(Z, 4, strategy)
        if not rep.unexpected:
            continue
        hits += 1
        eq, _ = projective_equivalent(Z, example)
        if eq:
            equivalent += 1
        else:
            failures.append(Z.to_dict())
    details = {
        "space": {
            "n": space.n,
            "r": space.r,
            "constraint": space.constraint,
            "seed": space.seed,
            "limit": space.limit,
        },
        "injected": len(inject),
        "tested": tested,
        "hits": hits,
        "hits equivalent to example": equivalent,
    }
    return _judged("quartic-uniqueness-grid", details, failures)


def check_random_nine(count: int = 200, seed=2, strategy=DEFAULT_STRATEGY) -> ClaimResult:
    """Random nine-point configurations admit no unexpected quartic."""
    configs = (random_config(9, 1000, (seed, i)) for i in range(count))
    failures = _unexpected_instances(configs, 4, strategy)
    return _judged("quartic-uniqueness-random", {"instances": count}, failures)


def check_superset_persistence(strategy=DEFAULT_STRATEGY) -> ClaimResult:
    """No tested ten-point superset of the example keeps the unexpected
    quartic, and no eight-point subset carries one."""
    Z = example_quartic_config()
    extra_points = [
        ProjectivePoint(QQ, (x, y, 1)) for x in range(-2, 3) for y in range(-2, 3)
    ] + [ProjectivePoint(QQ, (1, t, 0)) for t in (2, 3, -2)]
    supersets = [PointConfiguration(QQ, Z.points + (q,)) for q in extra_points if q not in Z]
    subsets = [PointConfiguration(QQ, Z.points[:skip] + Z.points[skip + 1 :]) for skip in range(9)]
    return _judged(
        "superset-persistence",
        {"supersets": len(supersets), "subsets": len(subsets), "mode": strategy.mode},
        _unexpected_instances(supersets + subsets, 4, strategy),
    )


# ---------------------------------------------------------------------------
# Fermat configuration claims
# ---------------------------------------------------------------------------


def check_fermat3_combinatorics() -> ClaimResult:
    """Twelve 3-rich lines, no simple lines, nothing richer, and exactly
    four 3-rich lines through every point."""
    Z = dual_fermat(3)
    stats = analyze_lines(Z)
    per_point = [len(stats.lines_through(i)) for i in range(len(Z))]
    details = {
        "3-rich": stats.rich_count(3),
        "simple": stats.simple_count,
        "k>=4": sum(v for k, v in stats.histogram.items() if k >= 4),
        "lines through each point": per_point,
    }
    ok = (
        stats.rich_count(3) == 12
        and stats.simple_count == 0
        and details["k>=4"] == 0
        and all(c == 4 for c in per_point)
    )
    return _judged("fermat3-combinatorics", details, [] if ok else [Z.to_dict()])


def check_fermat3_no_unexpected(strategy=DEFAULT_STRATEGY) -> ClaimResult:
    Z = dual_fermat(3)
    verdicts = {d: detect_unexpected(Z, d, strategy).unexpected for d in (2, 3, 4)}
    scan = [d for d in fermat_degrees(3) if verdicts[d]]
    details = {
        "verdicts": {str(k): v for k, v in verdicts.items()},
        "range scan": scan,
        "mode": strategy.mode,
    }
    ok = not any(verdicts.values()) and scan == []
    return _judged("fermat3-no-unexpected", details, [] if ok else [Z.to_dict()])


def check_fermat5_degree7(strategy=DEFAULT_STRATEGY) -> ClaimResult:
    """F5 over Q(zeta_5) has an unexpected degree-7 curve and the range scan
    over fermat_degrees(5) = [3, 7] finds exactly degree 7."""
    Z = dual_fermat(5)
    reports = {d: detect_unexpected(Z, d, strategy) for d in fermat_degrees(5)}
    rep = reports[7]
    scan = [d for d, r in reports.items() if r.unexpected]
    details = {
        "unexpected": rep.unexpected,
        "generic dim": rep.generic_dim,
        "threshold": rep.threshold,
        "dim I(Z)_7": rep.dim_z,
        "range scan": scan,
    }
    ok = rep.unexpected and rep.generic_dim == 1 and 7 in scan and scan == [7]
    return _judged("fermat5-degree7", details, [] if ok else [Z.to_dict()])


# ---------------------------------------------------------------------------
# splitting-type claims
# ---------------------------------------------------------------------------


def check_w5_splitting(strategy=DEFAULT_STRATEGY) -> ClaimResult:
    """The five-point family has m(1) = 0, m(2) = 2 and splitting type (2,2)."""
    failures = []
    traces = {}
    for a in (2, 3, -1):
        Z = family("w5", {"a": Fraction(a)})
        st = splitting_type(Z, strategy)
        traces[str(a)] = {
            "m": list(st.m_values),
            "type": [st.a, st.b],
            "balanced": st.balanced,
        }
        if not (st.m_values[1] == 0 and st.m_values[2] == 2 and (st.a, st.b) == (2, 2) and st.balanced):
            failures.append({"a": a, "trace": traces[str(a)]})
    return _judged("w5-splitting", traces, failures)


# ---------------------------------------------------------------------------
# example-configuration claims
# ---------------------------------------------------------------------------


def check_example_unexpected() -> ClaimResult:
    """Sampled (seeds 0, 1, 2) and certified modes agree: generic dimension 1
    against threshold 0."""
    Z = example_quartic_config()
    details = {}
    failures = []
    for s in (0, 1, 2):
        rep = detect_unexpected(Z, 4, GeneralPointStrategy(seed=s))
        details[f"sampled seed {s}"] = {
            "unexpected": rep.unexpected,
            "generic dim": rep.generic_dim,
            "threshold": rep.threshold,
            "dim I(Z)_4": rep.dim_z,
        }
        if not (rep.unexpected and rep.generic_dim == 1 and rep.threshold == 0 and rep.dim_z == 6):
            failures.append(f"sampled seed {s} disagrees")
    cert = detect_unexpected(Z, 4, GeneralPointStrategy(mode="certified"))
    details["certified"] = {
        "unexpected": cert.unexpected,
        "generic dim": cert.generic_dim,
        "threshold": cert.threshold,
    }
    if not (cert.unexpected and cert.generic_dim == 1 and cert.threshold == 0):
        failures.append("certified mode disagrees")
    return _judged("example-quartic-unexpected", details, failures)


def check_example_double_point(n_points: int = 5, seed=3) -> ClaimResult:
    """dim I(Z + 2P)_4 = 3 at random rational P, every basis form singular
    at P (all three first partials vanish)."""
    Z = example_quartic_config()
    failures = []
    dims = []
    for i in range(n_points):
        P = GeneralPointStrategy(seed=(i, seed, "double")).sample_point(QQ, i, set(Z.points))
        X = FatPointScheme.of(Z, (P, 2))
        basis = system_basis(X, 4)
        dims.append(len(basis))
        if len(basis) != 3:
            failures.append({"P": [str(c) for c in P.coeffs], "dim": len(basis)})
            continue
        for f in basis:
            partials = [evaluate(partial_derivative(f, v), P.coeffs) for v in "xyz"]
            if not all(p.is_zero() for p in partials):
                failures.append({"P": [str(c) for c in P.coeffs], "form": str(f)})
    return _judged("example-double-point-basis", {"dims": dims}, failures)


def check_example_splitting(strategy=DEFAULT_STRATEGY) -> ClaimResult:
    """The example configuration has splitting type (3, 5): unbalanced."""
    Z = example_quartic_config()
    st = splitting_type(Z, strategy)
    details = {"m": list(st.m_values), "type": [st.a, st.b], "balanced": st.balanced}
    ok = (st.a, st.b) == (3, 5) and not st.balanced and st.m_values[3] == 1
    return _judged("example-splitting", details, [] if ok else [details])


def check_example_equivalences() -> ClaimResult:
    """The three construction variants are pairwise equivalent; the example
    is not equivalent to the dual Fermat configuration."""
    variants = {
        pair: example_quartic_variant(pair) for pair in ((6, 7), (5, 7), (5, 6))
    }
    details = {}
    failures = []
    pairs = [((6, 7), (5, 7)), ((6, 7), (5, 6)), ((5, 7), (5, 6))]
    for p1, p2 in pairs:
        eq, _ = projective_equivalent(variants[p1], variants[p2])
        details[f"{p1} ~ {p2}"] = eq
        if not eq:
            failures.append(f"variants {p1} and {p2} are not equivalent")
    F3 = dual_fermat(3)
    Zc = example_quartic_config().lift(F3.field)
    eq, _ = projective_equivalent(Zc, F3)
    details["example ~ F3"] = eq
    if eq:
        failures.append("example compares equivalent to the Fermat configuration")
    return _judged("example-equivalences", details, failures)


# ---------------------------------------------------------------------------
# oracle coherence
# ---------------------------------------------------------------------------


def check_oracle_coherence(count: int = 50, seed=4) -> ClaimResult:
    """Sampled and certified generic dimensions agree on random small
    instances, and dim >= edim on every computed system."""
    rng = random.Random(f"fatpoints:oracle:{seed}")
    failures = []
    agreements = 0
    for t in range(count):
        r = rng.randint(3, 6)
        Z = random_config(r, 8, ("oracle", seed, t))
        j = rng.randint(1, 2)
        d = j + rng.randint(1, 2)
        sampled = generic_dim(Z, j, d, GeneralPointStrategy(seed=t))
        certified = generic_dim(Z, j, d, GeneralPointStrategy(mode="certified"))
        if sampled == certified:
            agreements += 1
        else:
            failures.append(
                {"config": Z.to_dict(), "j": j, "d": d, "sampled": sampled, "certified": certified}
            )
        P = GeneralPointStrategy(seed=t).sample_point(QQ, 0, set(Z.points))
        rep = dim_linear_system(FatPointScheme.of(Z, (P, j)), d)
        if rep.dim < rep.edim:
            failures.append({"config": Z.to_dict(), "dim": rep.dim, "edim": rep.edim})
    return _judged("oracle-coherence", {"instances": count, "agreements": agreements}, failures)


# ---------------------------------------------------------------------------
# the paper suite
# ---------------------------------------------------------------------------


def _family_instances():
    out = []
    for params in ({"a": 3, "b": 5}, {"a": Fraction(-1, 2), "b": Fraction(1, 4)}, {"a": 2, "b": -3}):
        out.append(("prop31", params, 4))
    for params in ({"a": 2, "b": 3}, {"a": -1, "b": 2}, {"a": Fraction(1, 2), "b": 3}):
        out.append(("prop33-case3", params, 4))
    out.append(("prop33-case3", {"a": -1, "b": 1}, 4))  # the excluded pair
    for params in ({"a": 2}, {"a": -3}, {"a": Fraction(2, 5)}):
        out.append(("prop33-first", params, 4))
    f6 = make_field("cyclotomic", 6)
    out.append(("prop33-first", {"a": primitive_root(f6)}, 4))
    return out


def check_families(strategy=DEFAULT_STRATEGY) -> ClaimResult:
    """check_family_emptiness passes on every family instance of the suite."""
    failures = []
    tested = []
    for fam, params, d in _family_instances():
        res = check_family_emptiness(fam, params, d, strategy)
        tested.append(
            {
                "family": fam,
                "params": {k: str(v) for k, v in params.items()},
                "pass": res.passed,
            }
        )
        if not res.passed:
            failures.extend(res.failures or [res.details])
    return _judged("family-emptiness", {"instances": tested}, failures)


# claim id -> runner(seed, general-point strategy), in suite order; every
# runner is given the run's one strategy, certified under certify
CLAIM_RUNNERS = {
    "hessian-certificate": lambda seed, s: check_hessian_certificate(),
    "two-and-four-d3": lambda seed, s: check_two_and_four_corpus(3, 100, seed, s),
    "two-and-four-d4": lambda seed, s: check_two_and_four_corpus(4, 100, seed, s),
    "family-emptiness": lambda seed, s: check_families(s),
    "cubic-nonexistence": lambda seed, s: check_cubic_nonexistence(500, seed + 1, s),
    "dejonquieres": lambda seed, s: check_dejonquieres(),
    "quartic-uniqueness-grid": lambda seed, s: search_uniqueness(
        SearchSpace(n=4, r=9, constraint="4-rich-line", seed=seed, limit=300),
        inject=(example_quartic_config(),),
        strategy=s,
    ),
    "quartic-uniqueness-random": lambda seed, s: check_random_nine(200, seed + 2, s),
    "superset-persistence": lambda seed, s: check_superset_persistence(s),
    "fermat3-combinatorics": lambda seed, s: check_fermat3_combinatorics(),
    "fermat3-no-unexpected": lambda seed, s: check_fermat3_no_unexpected(s),
    "fermat5-degree7": lambda seed, s: check_fermat5_degree7(s),
    "w5-splitting": lambda seed, s: check_w5_splitting(s),
    "example-quartic-unexpected": lambda seed, s: check_example_unexpected(),
    "example-double-point-basis": lambda seed, s: check_example_double_point(seed=seed + 3),
    "example-splitting": lambda seed, s: check_example_splitting(s),
    "example-equivalences": lambda seed, s: check_example_equivalences(),
    "oracle-coherence": lambda seed, s: check_oracle_coherence(50, seed + 4),
}

SUITE_CLAIMS = tuple(CLAIM_RUNNERS)


def run_timed(checker, *args, **kwargs) -> ClaimResult:
    """Call a claim checker and record its wall time as the result's runtime."""
    t0 = time.perf_counter()
    result = checker(*args, **kwargs)
    result.runtime = time.perf_counter() - t0
    return result


def run_paper_suite(seed: int = 0, certify: bool = False, claims=None) -> list[ClaimResult]:
    """Run every claim checker; deterministic given the seed.

    With certify=True every claim that takes a general point gets the
    certified mode; example-quartic-unexpected and oracle-coherence compare
    sampled against certified in every run.
    """
    strategy = GeneralPointStrategy(mode="certified" if certify else "sampled", seed=seed)
    if claims:
        unknown = set(claims) - set(CLAIM_RUNNERS)
        if unknown:
            raise ValueError(f"unknown claims: {sorted(unknown)}")
        selected = [c for c in SUITE_CLAIMS if c in set(claims)]
    else:
        selected = SUITE_CLAIMS
    return [run_timed(CLAIM_RUNNERS[c], seed, strategy) for c in selected]
