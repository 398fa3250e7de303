"""Independent oracle for the expected answers.

sympy recomputes dim I(Z)_d and dim I(Z + (d-1)P)_d over Q for a seeded
subset of the search and detect queries, every positive included, so the
answer table does not rest on the code under test.  The conditions here are
the homogeneous form of vanishing to order m: every partial derivative of
order m - 1 in x, y, z vanishes at the point.
"""

import itertools
import random
from math import comb, lcm

import pytest
from sympy import ZZ
from sympy.polys.matrices import DomainMatrix

import answers
import workloads

SEED = 3
NEGATIVES = 12
ORACLE_SAMPLES = 2


def _det3(m):
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def _falling(e, k):
    out = 1
    for i in range(k):
        out *= e - i
    return out


def _monomials(d):
    return [(a, b, d - a - b) for a in range(d, -1, -1) for b in range(d - a, -1, -1)]


def _rows(point, m, d):
    rows = []
    for order in itertools.product(range(m), repeat=3):
        if sum(order) != m - 1:
            continue
        row = []
        for mono in _monomials(d):
            v = 1
            for e, k, c in zip(mono, order, point):
                v *= _falling(e, k) * c ** (e - k) if e >= k else 0
            row.append(v)
        rows.append(row)
    return rows


def dim_system(fat_points, d):
    """dim I(X)_d for X = sum of m * P over integer triples P."""
    ncols = comb(d + 2, 2)
    rows = [r for p, m in fat_points for r in _rows(p, m, d)]
    if not rows:
        return ncols
    M = DomainMatrix([[ZZ(x) for x in r] for r in rows], (len(rows), ncols), ZZ)
    return ncols - M.rank()


def integer_triples(config):
    out = []
    for p in config.points:
        fr = [c.as_fraction() for c in p.coeffs]
        den = lcm(*(f.denominator for f in fr))
        out.append(tuple(int(f * den) for f in fr))
    return out


def oracle_unexpected(triples, d, rng):
    """Strict inequality dim I(Z + (d-1)P)_d > max(dim I(Z)_d - C(d,2), 0),
    with the generic value as the minimum over random points P."""
    simple = [(p, 1) for p in triples]
    dim_z = dim_system(simple, d)
    threshold = max(dim_z - comb(d, 2), 0)
    generic = min(
        dim_system(simple + [((rng.randint(-9999, 9999), rng.randint(-9999, 9999), 1), d - 1)], d)
        for _ in range(ORACLE_SAMPLES)
    )
    return generic > threshold


def _chosen(queries, is_positive):
    rng = random.Random(f"oracle:choose:{SEED}")
    negatives = [q for q in queries if not is_positive(q)]
    return [q for q in queries if is_positive(q)] + rng.sample(negatives, NEGATIVES)


def test_search_filter_table_matches_integer_collinearity():
    pts = workloads.height_one_points()
    assert len(pts) == 13
    missing = set()
    for i, combo in enumerate(itertools.combinations(range(13), 9)):
        sub = [pts[k] for k in combo]
        lines = {
            frozenset(k for k in range(9) if _det3((sub[a], sub[b], sub[k])) == 0)
            for a, b in itertools.combinations(range(9), 2)
        }
        if not any(len(line) == 4 for line in lines):
            missing.add(i)
    assert missing == answers.NO_4_RICH_LINE
    assert 715 - len(missing) == 662


def test_search_answers_against_sympy(fp):
    inputs = workloads.make_inputs(fp, "search", SEED)
    rng = random.Random("oracle:search")
    chosen = _chosen(inputs.queries, lambda q: q.expected[1])
    assert sum(q.expected[1] for q in chosen) == len(answers.SEARCH_HITS) == 8
    for q in chosen:
        assert oracle_unexpected(integer_triples(q.config), 4, rng) == q.expected[1], q.label


def test_search_hits_have_the_example_incidence():
    # a necessary condition for projective equivalence to the example:
    # the same line histogram, checked with integer determinants
    def histogram(triples):
        lines = {
            frozenset(k for k in range(9) if _det3((triples[a], triples[b], triples[k])) == 0)
            for a, b in itertools.combinations(range(9), 2)
        }
        return sorted(len(line) for line in lines)

    pts = workloads.height_one_points()
    want = histogram(list(workloads.EXAMPLE_TRIPLES))
    for i, combo in enumerate(itertools.combinations(range(13), 9)):
        if i in answers.SEARCH_HITS:
            assert histogram([pts[k] for k in combo]) == want


def test_detect_answers_against_sympy(fp):
    inputs = workloads.make_inputs(fp, "detect", SEED)
    rng = random.Random("oracle:detect")
    chosen = _chosen(inputs.queries, lambda q: q.expected)
    assert sum(q.expected for q in chosen) == workloads.DETECT_QUERIES // 8
    for q in chosen:
        assert oracle_unexpected(integer_triples(q.config), q.degree, rng) == q.expected, q.label


def test_certify_rational_answers_against_sympy(fp):
    inputs = workloads.make_inputs(fp, "certify", SEED)
    rng = random.Random("oracle:certify")
    rational = [q for q in inputs.queries if q.config.field == fp.QQ]
    assert any(q.expected for q in rational)
    for q in rational:
        assert oracle_unexpected(integer_triples(q.config), q.degree, rng) == q.expected, q.label


@pytest.mark.parametrize("n, degrees", [(3, []), (4, []), (5, [7]), (6, [8, 9])])
def test_fermat_table_is_the_published_range(n, degrees):
    assert answers.FERMAT_RANGES[n] == degrees


def test_every_answer_has_a_provenance(fp):
    for w in workloads.WORKLOADS:
        for q in workloads.make_inputs(fp, w, SEED).queries:
            assert q.source in answers.PROVENANCE
