"""Forms, monomial order, exact matrix kernels and the symbolic certificate."""

import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

import fatpoints.poly as poly
from fatpoints import (
    ExactMatrix,
    Form,
    GenericRankCertificate,
    ParamRing,
    PointConfiguration,
    QQ,
    apply_transform,
    dual_fermat,
    evaluate,
    exact_rank,
    example_quartic_config,
    family,
    make_field,
    monomial_basis,
    nullspace_basis,
    partial_derivative,
    primitive_root,
    product,
    random_config,
    symbolic_conditions_matrix,
    symbolic_rank_bound,
)


def test_monomial_basis_examples():
    assert monomial_basis(1) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert len(monomial_basis(4)) == 15
    assert len(monomial_basis(7)) == 36
    with pytest.raises(ValueError):
        monomial_basis(-1)


def test_monomial_basis_is_graded_lex():
    for d in (2, 3, 5):
        basis = monomial_basis(d)
        assert len(basis) == comb(d + 2, 2)
        assert basis[0] == (d, 0, 0)
        assert basis[-1] == (0, 0, d)
        for e1, e2 in zip(basis, basis[1:]):
            assert e1 > e2  # strictly decreasing in lex order at fixed degree


def _form(expr_coeffs, d, ring=QQ):
    return Form.from_coeffs(ring, d, expr_coeffs)


def _monomial_form(d, exponents, coeff=1, ring=QQ):
    coeffs = [0] * comb(d + 2, 2)
    coeffs[monomial_basis(d).index(tuple(exponents))] = coeff
    return Form.from_coeffs(ring, d, coeffs)


def test_partial_derivative_examples():
    x2y = _monomial_form(3, (2, 1, 0))
    assert partial_derivative(x2y, "x") == _monomial_form(2, (1, 1, 0), 2)
    x4 = _monomial_form(4, (4, 0, 0))
    assert partial_derivative(x4, "y").is_zero()
    xyz2 = _monomial_form(4, (1, 1, 2))
    dxy = partial_derivative(partial_derivative(xyz2, "x"), "y")
    assert dxy == _monomial_form(2, (0, 0, 2))
    const = Form.from_coeffs(QQ, 0, [5])
    assert partial_derivative(const, "x").is_zero()


def test_evaluate_examples():
    lin = Form.linear(QQ, (1, 1, 1))
    assert evaluate(lin, (1, -1, 0)).is_zero()
    f = _monomial_form(2, (2, 0, 0)) - _monomial_form(2, (0, 0, 2))
    assert evaluate(f, (-1, 0, 1)).is_zero()
    xy = _monomial_form(2, (1, 1, 0))
    assert evaluate(xy, (2, 3, 1)) == QQ.scalar(6)


def test_evaluate_homogeneity():
    rng = random.Random("homog")
    for _ in range(40):
        d = rng.randint(1, 4)
        f = Form.from_coeffs(QQ, d, [rng.randint(-5, 5) for _ in range(comb(d + 2, 2))])
        p = tuple(QQ.scalar(rng.randint(-7, 7)) for _ in range(3))
        lam = QQ.scalar(rng.randint(1, 6))
        scaled = tuple(lam * c for c in p)
        assert evaluate(f, scaled) == lam**d * evaluate(f, p)


def test_product_examples():
    x = Form.variable(QQ, "x")
    y = Form.variable(QQ, "y")
    z = Form.variable(QQ, "z")
    assert x * y == _monomial_form(2, (1, 1, 0))
    assert (x - z) * (x + z) == _monomial_form(2, (2, 0, 0)) - _monomial_form(2, (0, 0, 2))
    assert product([x]) == x


def test_product_evaluate_homomorphism():
    rng = random.Random("prodhom")
    for _ in range(40):
        d1, d2 = rng.randint(1, 3), rng.randint(1, 3)
        f = Form.from_coeffs(QQ, d1, [rng.randint(-4, 4) for _ in range(comb(d1 + 2, 2))])
        g = Form.from_coeffs(QQ, d2, [rng.randint(-4, 4) for _ in range(comb(d2 + 2, 2))])
        p = tuple(QQ.scalar(rng.randint(-6, 6)) for _ in range(3))
        assert evaluate(f * g, p) == evaluate(f, p) * evaluate(g, p)


def test_symbolic_quartic_product_vanishes_at_center():
    # y * x * M6 * M7 with M_j the join of a symbolic P = [a, b, 1] and the
    # two points at infinity [1, -1, 0], [1, 1, 0]; the quartic must vanish
    # at [0, 0, 1], which lies on both coordinate lines.  Oracle: evaluate.
    ring = ParamRing(QQ)
    P = (ring.a, ring.b, ring.one)

    def join(raw):
        q = tuple(ring.coerce(c) for c in raw)
        return Form.linear(
            ring,
            (
                P[1] * q[2] - P[2] * q[1],
                P[2] * q[0] - P[0] * q[2],
                P[0] * q[1] - P[1] * q[0],
            ),
        )

    G = product(
        [Form.variable(ring, "y"), Form.variable(ring, "x"), join((1, -1, 0)), join((1, 1, 0))]
    )
    assert G.degree == 4
    assert evaluate(G, tuple(ring.coerce(c) for c in (0, 0, 1))).is_zero()
    # and the symbolic point itself is a double point of the product
    assert evaluate(G, P).is_zero()
    assert evaluate(partial_derivative(G, "x"), P).is_zero()
    assert evaluate(partial_derivative(G, "y"), P).is_zero()


# -- matrix kernels ----------------------------------------------------------


def _brute_rank(rows, field):
    """Independent oracle: largest k with a nonzero k x k minor, by
    cofactor-expansion determinants over all row/column subsets."""

    def det(sub):
        n = len(sub)
        if n == 1:
            return sub[0][0]
        total = field.zero
        sign = 1
        for j in range(n):
            minor = [r[:j] + r[j + 1 :] for r in sub[1:]]
            term = sub[0][j] * det(minor)
            total = total + term if sign > 0 else total - term
            sign = -sign
        return total

    m, n = len(rows), len(rows[0])
    for k in range(min(m, n), 0, -1):
        for ri in combinations(range(m), k):
            for ci in combinations(range(n), k):
                sub = [[rows[i][j] for j in ci] for i in ri]
                if not det(sub).is_zero():
                    return k
    return 0


def test_exact_rank_examples():
    eye = ExactMatrix(QQ, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert exact_rank(eye) == 3
    assert nullspace_basis(eye) == []
    M = ExactMatrix(QQ, [[1, 2], [2, 4]])
    assert exact_rank(M) == 1
    ns = nullspace_basis(M)
    assert len(ns) == 1
    assert ns[0] == (QQ.scalar(-2), QQ.one)


def test_vandermonde_rank_with_determinant_oracle():
    nodes = [0, 1, 2, 3, 4]
    # oracle: Vandermonde determinant = product of node differences
    det = 1
    for i in range(5):
        for j in range(i + 1, 5):
            det *= nodes[j] - nodes[i]
    assert det != 0
    V = ExactMatrix(QQ, [[x**k for k in range(5)] for x in nodes])
    assert exact_rank(V) == 5


def test_rank_against_brute_force_minors():
    rng = random.Random("bruterank")
    for _ in range(25):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        rows = [[QQ.scalar(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)]
        M = ExactMatrix(QQ, rows)
        assert exact_rank(M) == _brute_rank(rows, QQ)
    f3 = make_field("cyclotomic", 3)
    z = primitive_root(f3)
    for _ in range(12):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        rows = [
            [f3.scalar(rng.randint(-2, 2)) + z * rng.randint(-2, 2) for _ in range(n)]
            for _ in range(m)
        ]
        M = ExactMatrix(f3, rows)
        assert exact_rank(M) == _brute_rank(rows, f3)


def test_nullspace_exactness_and_dimension():
    rng = random.Random("nullsp")
    fields = [QQ, make_field("cyclotomic", 3)]
    for field in fields:
        for _ in range(20):
            m, n = rng.randint(1, 5), rng.randint(1, 6)
            rows = [
                [field.scalar(Fraction(rng.randint(-4, 4), rng.randint(1, 3))) for _ in range(n)]
                for _ in range(m)
            ]
            M = ExactMatrix(field, rows)
            rank = exact_rank(M)
            basis = nullspace_basis(M)
            assert len(basis) == n - rank
            for v in basis:
                assert all(s.is_zero() for s in M.matvec(v))
        empty = ExactMatrix(field, [])
        assert (exact_rank(empty), nullspace_basis(empty)) == (0, [])


def test_rank_invariances():
    rng = random.Random("rankinv")
    for _ in range(15):
        m, n = rng.randint(2, 5), rng.randint(2, 5)
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
        M = ExactMatrix(QQ, rows)
        r = exact_rank(M)
        assert exact_rank(M.transpose()) == r
        pr = list(range(m))
        pc = list(range(n))
        rng.shuffle(pr)
        rng.shuffle(pc)
        scale = rng.choice([1, -1, 2, Fraction(1, 3)])
        permuted = ExactMatrix(
            QQ, [[scale * rows[i][j] for j in pc] for i in pr]
        )
        assert exact_rank(permuted) == r


def test_symbolic_rank_bound_examples():
    ring = ParamRing(QQ)
    a, b = ring.a, ring.b
    diag = ExactMatrix(ring, [[a, ring.zero], [ring.zero, b]])
    cert = symbolic_rank_bound(diag)
    assert cert.rank == 2
    rep = ExactMatrix(ring, [[a, b], [a, b]])
    cert = symbolic_rank_bound(rep)
    assert cert.rank == 1
    assert symbolic_rank_bound(ExactMatrix(ring, [])) == GenericRankCertificate(
        0, (0, 0), 0, 0, 1
    )


def test_symbolic_rank_agrees_with_specializations():
    # over Q(zeta_3) the last two rows carry non-integral coefficients such
    # as (1/2)*z*a, and the rank needs the last row: the certificate has to
    # scale cyclotomic rows, not truncate them
    f3 = make_field("cyclotomic", 3)
    for field, c in ((QQ, 2), (f3, primitive_root(f3) * Fraction(1, 2))):
        ring = ParamRing(field)
        a, b = ring.a, ring.b
        rows = [
            [a * b, a + b, ring.one],
            [a * b * c, (a + b) * c, ring.coerce(c)],
            [b * c, a * c, a * a * c],
        ]

        def spec_rank(a0, b0):
            spec = [[e.evaluate(a0, b0) for e in row] for row in rows]
            return exact_rank(ExactMatrix(field, spec))

        cert = symbolic_rank_bound(ExactMatrix(ring, rows))
        # rank 1 at (a, b) = (0, 0), rank 2 at the next grid point
        assert cert == GenericRankCertificate(2, (0, 1), 4, 3, 20)
        assert spec_rank(*cert.witness) == cert.rank
        rng = random.Random("spez")
        attained = False
        for _ in range(20):
            r = spec_rank(rng.randint(-30, 30), rng.randint(-30, 30))
            assert r <= cert.rank
            attained = attained or r == cert.rank
        assert attained


def _full_grid_certificate(M):
    """Reference certificate: the exact rank at every point of the grid the
    degree bound requires, its maximum and the first point attaining it."""
    field = M.ring.field
    da = sum(max((e.deg_a() for e in row), default=0) for row in M.rows)
    db = sum(max((e.deg_b() for e in row), default=0) for row in M.rows)
    best, witness = -1, (0, 0)
    for a0 in range(da + 1):
        for b0 in range(db + 1):
            spec = [[e.evaluate(a0, b0) for e in row] for row in M.rows]
            r = exact_rank(ExactMatrix(field, spec))
            if r > best:
                best, witness = r, (a0, b0)
    return GenericRankCertificate(best, witness, da, db, (da + 1) * (db + 1))


def _reference_matrices():
    ring = ParamRing(QQ)
    a, b = ring.a, ring.b
    zeta6 = primitive_root(make_field("cyclotomic", 6))
    example = example_quartic_config()
    F3 = dual_fermat(3)
    excluded_pair = PointConfiguration(
        QQ, [[1, 0, 0], [0, 1, 0], [1, -1, 0], [1, 1, 0], [1, 0, 1], [0, 1, 1],
             [1, 1, 2], [0, 0, 1], [1, 1, 1]],
    )  # fmt: skip
    # six points on the line z = 0 give 7 constant rows of rank 6 in degree 4
    collinear = PointConfiguration(QQ, [[1, k, 0] for k in range(6)] + [[0, 0, 1]])
    return {
        "prop31 a=6 b=-2": (family("prop31", {"a": 6, "b": -2}), 3, 4),
        "prop31 a=4/3 b=-3": (family("prop31", {"a": Fraction(4, 3), "b": -3}), 3, 4),
        "prop33-case3 a=-6 b=2": (family("prop33-case3", {"a": -6, "b": 2}), 3, 4),
        "prop33-case3 a=2/3 b=-3": (family("prop33-case3", {"a": Fraction(2, 3), "b": -3}), 3, 4),
        "prop33-first a=6": (family("prop33-first", {"a": 6}), 3, 4),
        "prop33-first a=-3/2": (family("prop33-first", {"a": Fraction(-3, 2)}), 3, 4),
        "prop33-first a=zeta_6": (family("prop33-first", {"a": zeta6}), 3, 4),
        "excluded pair": (excluded_pair, 3, 4),
        "example": (example, 3, 4),
        "example image": (apply_transform([[1, 1, 0], [0, 1, 0], [2, 0, 1]], example), 3, 4),
        "F3 d=2": (F3, 1, 2),
        "F3 d=3": (F3, 2, 3),
        "F3 d=4": (F3, 3, 4),
        "collinear": (collinear, 3, 4),
        # seven general points fill the six columns: the kernel of C is empty
        "empty kernel": (random_config(7, 50, "empty-kernel"), 1, 2),
        # rank 1 up to the witness (2, 0)
        "no constant rows": ExactMatrix(ring, [[a, b, ring.one], [a * a, b * b, ring.one]]),
        "no parametric rows": ExactMatrix(ring, [[1, 2, 3], [2, 4, 6]]),
    }


@pytest.mark.parametrize("label", list(_reference_matrices()))
def test_symbolic_rank_bound_matches_full_grid_reference(label):
    M = _reference_matrices()[label]
    if not isinstance(M, ExactMatrix):
        M = symbolic_conditions_matrix(*M)
    assert symbolic_rank_bound(M) == _full_grid_certificate(M)


def test_grid_sweep_stops_at_the_rank_ceiling(monkeypatch):
    calls = [0]
    echelon = poly._echelon

    def counted(*args):
        calls[0] += 1
        return echelon(*args)

    monkeypatch.setattr(poly, "_echelon", counted)
    # F3 reaches its ceiling at the witness (1, 2), the 20th of 289 points;
    # the example stays at rank 14, below its ceiling of 15, to the end
    for Z, rank, witness, evaluated in (
        (dual_fermat(3), 15, (1, 2), 20),
        (example_quartic_config(), 14, (1, 1), 289),
    ):
        calls[0] = 0
        cert = symbolic_rank_bound(symbolic_conditions_matrix(Z, 3, 4))
        assert (cert.rank, cert.witness, cert.grid_points) == (rank, witness, 289)
        # one elimination for the kernel of the constant rows, one per point
        assert calls[0] == 1 + evaluated


def test_cyclotomic_bareiss_division_is_checked(monkeypatch):
    f3 = make_field("cyclotomic", 3)
    M = ExactMatrix(f3, [[2, 1], [1, 1], [1, 0]])
    assert exact_rank(M) == 2
    cyc_ops = poly._cyc_ops

    def corrupted(field):
        mul = cyc_ops(field)
        calls = [0]

        def bad_mul(u, v):
            calls[0] += 1
            w = mul(u, v)
            # the 9th product is the first of the second sweep, whose
            # difference is then divided by the first pivot, 2
            return (w[0] + 1, *w[1:]) if calls[0] == 9 else w

        return bad_mul

    monkeypatch.setattr(poly, "_cyc_ops", corrupted)
    with pytest.raises(ArithmeticError):
        exact_rank(M)


def test_symbolic_rank_of_second_partials_matrix():
    # the 3x3 matrix of second partials of the three reducible quartics at
    # the symbolic double point has vanishing determinant, so the certified
    # generic rank must be at most 2
    from fatpoints import example_quartic_config
    from fatpoints.geom import _cross

    ring = ParamRing(QQ)
    Z = example_quartic_config()
    P = (ring.a, ring.b, ring.one)
    lifted = [tuple(ring.coerce(c) for c in p.coeffs) for p in Z.points]
    M = {j: Form.linear(ring, _cross(P, lifted[j - 1])) for j in range(1, 10)}
    G1 = product([Form.variable(ring, "y"), Form.variable(ring, "x"), M[6], M[7]])
    G2 = product([Form.variable(ring, "y"), Form.variable(ring, "z"), M[2], M[4]])
    G3 = product([Form.variable(ring, "x"), Form.variable(ring, "z"), M[1], M[3]])
    rows = []
    for first, second in (("x", "x"), ("x", "y"), ("y", "y")):
        rows.append(
            [
                evaluate(partial_derivative(partial_derivative(G, first), second), P)
                for G in (G1, G2, G3)
            ]
        )
    cert = symbolic_rank_bound(ExactMatrix(ring, rows))
    assert cert.rank <= 2


def test_form_degree_zero_is_scalar():
    c = Form.from_coeffs(QQ, 0, [7])
    assert evaluate(c, (3, 4, 5)) == QQ.scalar(7)
    assert len(c.coeffs) == 1
