"""Conditions matrices, system dimensions, bases, and the symbolic builder."""

import random
import re
from fractions import Fraction
from math import comb, perm
from types import SimpleNamespace

import pytest

from fatpoints import (
    BaseLocusError,
    ExactMatrix,
    FatPointScheme,
    FieldMismatchError,
    Form,
    ProjectivePoint,
    QQ,
    Scalar,
    apply_transform,
    conditions_matrix,
    dim_linear_system,
    dual_fermat,
    evaluate,
    exact_rank,
    example_quartic_config,
    family,
    make_field,
    nullspace_basis,
    partial_derivative,
    primitive_root,
    product,
    random_config,
    rational_map_image,
    symbolic_conditions_matrix,
    system_basis,
)
import fatpoints.linsys as linsys
import fatpoints.poly as poly
from fatpoints.field import Residues
from fatpoints.geom import mat3_det
from fatpoints.linsys import (
    _check_vanishing,
    _condition_rows,
    _point_rows,
    system_dimension,
)
from fatpoints.poly import monomial_basis, taylor_coefficients
from fatpoints.unexpected import GeneralPointStrategy


def _point(*coords, field=QQ):
    return ProjectivePoint(field, coords)


def test_conditions_matrix_shapes():
    Z = example_quartic_config()
    P = _point(2, 3, 1)
    X = FatPointScheme.of(Z, (P, 3))
    M = conditions_matrix(X, 4)
    assert (M.nrows, M.ncols) == (15, 15)
    single = FatPointScheme(QQ, [(_point(1, 0, 0), 1)])
    assert (conditions_matrix(single, 1).nrows, conditions_matrix(single, 1).ncols) == (1, 3)
    double = FatPointScheme(QQ, [(_point(1, 1, 1), 2)])
    M = conditions_matrix(double, 2)
    assert (M.nrows, M.ncols) == (3, 6)


def test_row_count_identity():
    rng = random.Random("rows")
    for t in range(10):
        Z = random_config(rng.randint(1, 5), 7, ("rows", t))
        extra = (_point(17, -13, 1), rng.randint(1, 4))
        X = FatPointScheme.of(Z, extra)
        d = rng.randint(0, 4)
        M = conditions_matrix(X, d)
        assert M.nrows == sum(comb(m + 1, 2) for _, m in X.parts)
        assert M.ncols == comb(d + 2, 2)


def test_dim_examples():
    X = FatPointScheme(QQ, [(_point(3, 5, 1), 1)])
    rep = dim_linear_system(X, 1)
    assert (rep.vdim, rep.dim, rep.special) == (2, 2, False)
    X = FatPointScheme(QQ, [(_point(1, 2, 1), 3)])
    rep = dim_linear_system(X, 2)
    assert (rep.vdim, rep.dim) == (0, 0)
    Z = example_quartic_config()
    P = _point(7, 3, 1)
    rep = dim_linear_system(FatPointScheme.of(Z, (P, 2)), 4)
    assert rep.dim == 3


def test_empty_scheme_imposes_nothing():
    # the empty scheme's conditions matrix has no rows and every column of
    # degree d, so the residue certificate that decides every other system
    # returns its RREF basis: the standard basis of all forms of degree d
    for field in (QQ, make_field("cyclotomic", 5)):
        X = FatPointScheme(field, [])
        for d in (2, 4):
            n = comb(d + 2, 2)
            standard = [tuple(field.one if i == k else field.zero for i in range(n)) for k in range(n)]
            M = conditions_matrix(X, d)
            assert (M.nrows, M.ncols) == (0, n)
            assert exact_rank(M) == 0
            assert nullspace_basis(M) == standard
            assert system_dimension(X, d) == n
            rep = dim_linear_system(X, d)
            assert (rep.vdim, rep.dim, rep.special) == (n, n, False)
            assert [f.coeffs for f in rep.basis] == standard
    # a matrix given its width holds rows of exactly that width
    assert ExactMatrix.from_integral(QQ, [[1, 2, 3]], 3).ncols == 3
    with pytest.raises(ValueError):
        ExactMatrix.from_integral(QQ, [[1, 2]], 3)


def test_scheme_validation():
    with pytest.raises(ValueError):
        FatPointScheme(QQ, [(_point(1, 0, 0), 0)])
    with pytest.raises(ValueError):
        FatPointScheme(QQ, [(_point(1, 0, 0), 1), (_point(2, 0, 0), 1)])


def test_a_scheme_plus_a_fat_point_is_the_scheme_built_whole():
    # plus keeps the scheme's parts and row triples and adds those of one
    # point, last, with the constructor's errors; lead does the same with
    # the point first, and its conditions matrix, the same rows in another
    # order, has the same rank
    for Z in (example_quartic_config(), dual_fermat(3)):
        X = FatPointScheme.of(Z)
        P = ProjectivePoint(Z.field, (3, -5, 1))
        for point in (P, (3, -5, 1)):
            Y, whole = X.plus(point, 3), FatPointScheme.of(Z, (P, 3))
            assert (Y.field, Y.parts, Y._triples) == (whole.field, whole.parts, whole._triples)
            Y, whole = X.lead(point, 3), FatPointScheme(Z.field, [(P, 3)] + [(p, 1) for p in Z.points])
            assert (Y.field, Y.parts, Y._triples) == (whole.field, whole.parts, whole._triples)
        assert X.parts == FatPointScheme.of(Z).parts
        for d in (3, 4):
            assert system_dimension(X.lead(P, 3), d) == system_dimension(X.plus(P, 3), d)
        for join in (X.plus, X.lead):
            with pytest.raises(ValueError, match="pairwise distinct"):
                join(Z.points[4].triple, 2)
            with pytest.raises(ValueError, match="multiplicities"):
                join(P, 0)
    for join in ("plus", "lead"):
        with pytest.raises(FieldMismatchError):
            getattr(FatPointScheme.of(dual_fermat(3)), join)(ProjectivePoint(QQ, (3, -5, 1)), 1)


def test_system_basis_simple_point():
    X = FatPointScheme(QQ, [(_point(1, 0, 0), 1)])
    basis = system_basis(X, 1)
    y = Form.variable(QQ, "y")
    z = Form.variable(QQ, "z")
    assert basis == [y, z]


def test_system_basis_double_point_singular():
    Z = example_quartic_config()
    P = _point(4, -9, 1)
    X = FatPointScheme.of(Z, (P, 2))
    basis = system_basis(X, 4)
    assert len(basis) == 3
    for f in basis:
        for v in "xyz":
            assert evaluate(partial_derivative(f, v), P.coeffs).is_zero()


def test_system_basis_triple_point_unexpected_quartic():
    Z = example_quartic_config()
    P = _point(5, 11, 1)
    X = FatPointScheme.of(Z, (P, 3))
    basis = system_basis(X, 4)
    assert len(basis) == 1


def _last_nonzero(coords):
    """The index of the last nonzero coordinate of a triple."""
    return max(i for i in range(3) if coords[i])


def _vanishes_to_order(f, coords, m):
    """Whether every Taylor coefficient of f of total order below m at
    the triple coords is zero."""
    return not any(taylor_coefficients(f, coords, m))


def _vanishes_to_order_in_all_charts(f, p, m):
    # chart-independent oracle for multiplicity: all partials of order < m
    # in the two variables of every chart with a nonzero coordinate
    for chart in range(3):
        if not p.coeffs[chart]:
            continue
        u, v = [i for i in range(3) if i != chart]
        for au in range(m):
            for av in range(m - au):
                g = f
                for _ in range(au):
                    g = partial_derivative(g, u)
                for _ in range(av):
                    g = partial_derivative(g, v)
                if not evaluate(g, p.coeffs).is_zero():
                    return False
    return True


def _derivative_orders(m: int):
    """Multi-indices (order in u, order in v) of total order < m: the chart
    derivatives of an m-fold point."""
    return [(au, o - au) for o in range(m) for au in range(o, -1, -1)]


def _failing_one_condition(X, d, point_index, alpha):
    """f + g, f the first basis form of I(X)_d and g a form that meets every
    condition row of X but the one of (point, alpha), the partial of order
    alpha in x, y, z: so f + g fails exactly that condition."""
    M = conditions_matrix(X, d)
    assert exact_rank(M) == M.nrows  # so each row is off the others' span
    r = sum(comb(m + 1, 2) for _, m in X.parts[:point_index])
    r += monomial_basis(X.parts[point_index][1] - 1).index(alpha)
    rows = M.rows
    others = nullspace_basis(ExactMatrix(X.field, rows[:r] + rows[r + 1:]))
    g = next(v for v in others if sum(a * b for a, b in zip(rows[r], v)))
    return system_basis(X, d)[0] + Form(X.field, d, g)


def _order_exactly(field, coords, k, d, i):
    """L_u^i L_v^(k - i) x_c^(d - k), L_u = p_c x_u - p_u x_c and L_v
    alike in the chart c = _last_nonzero(coords): it vanishes to order k at
    the triple and no further, and of its Taylor coefficients of order k in
    that chart only the one at s^i t^(k - i) is nonzero."""
    c = _last_nonzero(coords)
    u, v = [j for j in range(3) if j != c]

    def line(w):
        triple = [field.zero] * 3
        triple[w], triple[c] = coords[c], -coords[w]
        return Form(field, 1, triple)

    return product([line(u)] * i + [line(v)] * (k - i) + [Form.variable(field, c)] * (d - k))


def test_check_vanishing_raises_on_each_failing_condition():
    # every order-2 partial of a triple point, a simple point of Z, and
    # every first partial of a double dual F3 point in chart y over
    # Q(zeta_3): the chart walk catches each Euler row that fails
    Z = example_quartic_config()
    X = FatPointScheme.of(Z, (_point(5, 11, 1), 3))
    F3 = dual_fermat(3)
    Y = FatPointScheme(F3.field, [(F3.points[0], 2)] + [(p, 1) for p in F3.points[1:]])
    assert _last_nonzero(F3.points[0].coeffs) == 1
    cases = [(X, 5, 9, alpha) for alpha in monomial_basis(2)] + [(X, 5, 0, (0, 0, 0))]
    cases += [(Y, 4, 0, alpha) for alpha in monomial_basis(1)]
    for scheme, d in ((X, 5), (Y, 4)):
        for f in system_basis(scheme, d):
            _check_vanishing(f, scheme)
    for scheme, d, i, alpha in cases:
        p, m = scheme.parts[i]
        h = _failing_one_condition(scheme, d, i, alpha)
        with pytest.raises(AssertionError, match=re.escape(f"order-{m} condition at {p!r}")):
            _check_vanishing(h, scheme)
    # a form that fails one order-5 condition of a 6-fold point and no
    # other, at each s^i t^(5 - i) in turn: a Taylor shift truncated one
    # order short in s or in t would pass it.  P = [1, 3/2, 7/2] shifts t
    # by products and weights by powers of 7/2, and the form's factor z^2
    # vanishes at the two simple points, on z = 0, and not at P
    P = _point(2, 3, 7)
    Q1, Q2 = _point(1, 0, 0), _point(0, 1, 0)
    W = FatPointScheme(QQ, [(Q1, 1), (Q2, 1), (P, 6)])
    for i in range(6):
        h = _order_exactly(QQ, P.coeffs, 5, 7, i)
        assert _vanishes_to_order(h, P.coeffs, 5) and not _vanishes_to_order(h, P.coeffs, 6)
        with pytest.raises(AssertionError, match=re.escape(f"order-6 condition at {P!r}")):
            _check_vanishing(h, W)


def test_taylor_check_agrees_with_the_chart_oracle():
    # the Taylor check of one m-fold point, simple or fat, against the
    # derivative oracle in every chart, on each basis form of the scheme
    # and on forms that vanish to exactly k = 0, ..., m there, alone and
    # added to a basis form: at the point's stored triple and at a multiple
    # of it, which has no coordinate equal to 1 (a stored triple's first
    # nonzero coordinate is 1), so the chart's unit coordinate, shifted
    # above m = 1 and the weight coordinate at m = 1, moves off 1
    Z = example_quartic_config()
    F3, F5 = dual_fermat(3), dual_fermat(5)
    cases = [
        (Z.points, _point(5, 11, 1), 3, 4),  # the example's triple point
        (F5.points, GeneralPointStrategy(seed=0).sample_point(F5.field, 0, set(F5.points)), 6, 7),
        (Z.points[:4], _point(1, 0, 0), 2, 3),  # chart x
        (Z.points[:4], _point(1, 3, 0), 2, 3),  # chart y, coordinate 3
        (F3.points[1:], F3.points[0], 2, 4),  # chart y over Q(zeta_3)
        (Z.points, _point(5, 11, 1), 1, 4),  # simple points
        (Z.points[:4], _point(1, 3, 0), 1, 3),  # a zero coordinate
        (Z.points[:4], _point(0, 0, 1), 1, 2),  # two zero coordinates
        (F3.points[1:], F3.points[0], 1, 4),  # over Q(zeta_3), a zero coordinate
        (F5.points[1:], GeneralPointStrategy(seed=0).sample_point(F5.field, 0, set(F5.points)), 1, 7),
    ]
    for points, P, m, d in cases:
        field = P.field
        basis = system_basis(FatPointScheme(field, [(q, 1) for q in points] + [(P, m)]), d)
        assert basis
        for coords in (P.coeffs, tuple(3 * c for c in P.coeffs)):
            forms = [(f, True) for f in basis]
            for k in range(m + 1):
                h = _order_exactly(field, coords, k, d, k // 2)
                forms += [(h, k >= m), (basis[0] + h, k >= m)]
            for f, meets in forms:
                assert _vanishes_to_order(f, coords, m) is meets
                assert _vanishes_to_order_in_all_charts(f, SimpleNamespace(coeffs=coords), m) is meets


def test_witness_check_scalar_products(monkeypatch):
    # every Scalar product of system_basis is made by its witness check:
    # one Taylor expansion per point, which at a simple point is one
    # evaluation by nested Horner; dual F6's 8-fold point at degree 9 has
    # sums that cancel to zero, which its later passes skip (553 products
    # when they are multiplied).  The Fermat witnesses are rational, so
    # they are expanded at one point per Galois orbit, and at a rational
    # point over Q (173 and 532 products at every point in Q(zeta_n))
    calls = [0]
    mul = Scalar.__mul__

    def counted(self, other):
        calls[0] += 1
        return mul(self, other)

    monkeypatch.setattr(Scalar, "__mul__", counted)
    monkeypatch.setattr(Scalar, "__rmul__", counted)
    counts = []
    for Z, j, d in ((example_quartic_config(), 3, 4), (dual_fermat(5), 6, 7), (dual_fermat(6), 8, 9)):
        X = FatPointScheme.of(Z, (ProjectivePoint(Z.field, (2, 7, 1)), j))
        calls[0] = 0
        assert len(system_basis(X, d)) == 1 + (j == 8)
        counts.append(calls[0])
    assert counts == [31, 119, 442]


def test_witness_check_over_q_makes_no_fraction(monkeypatch):
    # a Scalar holds integral coordinates over one denominator, so the
    # example's witness check over Q runs on ints: no Fraction is made
    Z = example_quartic_config()
    X = FatPointScheme.of(Z, (ProjectivePoint(Z.field, (2, 7, 1)), 3))
    (f,) = system_basis(X, 4)
    made = [0]
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    coprime = getattr(Fraction, "_from_coprime_ints", None)
    if coprime is not None:  # where Fraction arithmetic does not call __new__

        def counted_coprime(cls, numerator, denominator):
            made[0] += 1
            return coprime(numerator, denominator)

        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(counted_coprime))
    assert Fraction(1, 2) * Fraction(1, 3) == Fraction(1, 6) and made[0] >= 2
    made[0] = 0
    _check_vanishing(f, X)
    assert made[0] == 0


def test_basis_vanishing_in_all_charts():
    Z = example_quartic_config()
    P = _point(0, 1, 0)  # a point at infinity, exercising a non-z chart
    X = FatPointScheme(QQ, [(p, 1) for p in Z.points[:4]] + [(P, 2)])
    for f in system_basis(X, 3):
        for point, m in X.parts:
            assert _vanishes_to_order_in_all_charts(f, point, m)


def test_dim_invariant_under_transform():
    rng = random.Random("dimtr")
    Z = random_config(6, 9, "dimtr")
    P = _point(23, -7, 1)
    X = FatPointScheme.of(Z, (P, 2))
    base = system_dimension(X, 3)
    for _ in range(4):
        T = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        Tm = tuple(tuple(QQ.scalar(e) for e in row) for row in T)
        if mat3_det(Tm).is_zero():
            continue
        Zt = apply_transform(T, Z)
        Pt = ProjectivePoint(QQ, [sum((Tm[i][k] * P.coeffs[k] for k in (1, 2)), Tm[i][0] * P.coeffs[0]) for i in range(3)])
        Xt = FatPointScheme.of(Zt, (Pt, 2))
        assert system_dimension(Xt, 3) == base


def test_dim_at_least_edim():
    rng = random.Random("edim")
    for t in range(25):
        Z = random_config(rng.randint(1, 7), 9, ("edim", t))
        parts = [(p, rng.randint(1, 2)) for p in Z.points]
        X = FatPointScheme(QQ, parts)
        d = rng.randint(0, 4)
        rep = dim_linear_system(X, d)
        assert rep.dim >= rep.edim
        assert rep.edim == max(rep.vdim, 0)
        assert rep.special == (rep.dim > rep.edim)


def test_two_simple_points_nonspecial():
    for d in (1, 2, 3):
        X = FatPointScheme(QQ, [(_point(0, 0, 1), 1), (_point(5, 3, 1), 1)])
        rep = dim_linear_system(X, d)
        assert rep.dim == rep.edim


def test_rational_map_image():
    basis = [Form.variable(QQ, v) for v in "xyz"]
    p = _point(4, 5, 6)
    assert rational_map_image(basis, p) == p
    x = Form.variable(QQ, "x")
    degenerate = [x * Form.variable(QQ, v) for v in "xyz"]
    assert rational_map_image(degenerate, _point(1, 2, 3)) == _point(1, 2, 3)
    with pytest.raises(BaseLocusError):
        rational_map_image([x * x], _point(0, 1, 0))
    # two forms: a point of P^1, scaled to first nonzero value 1
    y, z = Form.variable(QQ, "y"), Form.variable(QQ, "z")
    assert rational_map_image([z, y], _point(0, 2, 3)) == (QQ.one, QQ.scalar("2/3"))
    assert rational_map_image([x, z], _point(0, 2, 3)) == (QQ.zero, QQ.one)


def test_dejonquieres_images_collinear():
    # P must be general: a P on a line joining two centers would pull that
    # line into the base locus (it meets every system quartic 5 times)
    Z = example_quartic_config()
    P = GeneralPointStrategy(seed=0).sample_point(QQ, 0, set(Z.points))
    X = FatPointScheme(QQ, [(P, 3)] + [(p, 1) for p in Z.points[:6]])
    basis = system_basis(X, 4)
    assert len(basis) == 3
    images = [rational_map_image(basis, q) for q in Z.points[6:]]
    assert mat3_det(tuple(q.coeffs for q in images)).is_zero()


def test_dejonquieres_special_point_pulls_line_into_base_locus():
    # P = (3, 2, 1) lies on the line joining the second and third points,
    # which then becomes a fixed component through Z7: the map is undefined
    Z = example_quartic_config()
    P = _point(3, 2, 1)
    X = FatPointScheme(QQ, [(P, 3)] + [(p, 1) for p in Z.points[:6]])
    basis = system_basis(X, 4)
    with pytest.raises(BaseLocusError):
        rational_map_image(basis, Z.points[6])


def test_symbolic_matrix_specializes_to_concrete():
    # the general point's conditions on I(Z)_d at P = [a, b, 1], evaluated
    # at integers, must equal the concrete rows of P at those coordinates
    # times the kernel N of Z's conditions matrix C: each nullspace_basis
    # vector times the denominator its certificate cleared.  The concrete
    # matrix of Z + jP then has rank C plus the rank of that product
    rng = random.Random("symspec")
    for t in range(6):
        Z = random_config(rng.randint(2, 5), 6, ("symspec", t))
        j = rng.randint(1, 3)
        d = rng.randint(j, j + 2)
        X = FatPointScheme.of(Z)
        M = symbolic_conditions_matrix(X, j, d)
        a0, b0 = rng.randint(-9, 9), rng.randint(-9, 9)
        P = _point(a0, b0, 1)
        if P in Z.points:
            continue
        sa, sb = QQ.scalar(a0), QQ.scalar(b0)
        spec = [[e.evaluate(sa, sb) for e in row] for row in M.rows]
        C = conditions_matrix(X, d)
        _, kernel = poly._certificate(C)
        N = [[den * x for x in v] for v, (_, den) in zip(nullspace_basis(C), kernel)]
        assert (M.nrows, M.ncols) == (comb(j + 1, 2), len(N))
        concrete = [list(r) for r in conditions_matrix(FatPointScheme.of(Z, (P, j)), d).rows]
        n = len(Z)
        projected = [[sum((x * y for x, y in zip(row, v)), QQ.zero) for v in N] for row in concrete[n:]]
        # P's stored triple is s * (a0, b0, 1), s = +-1, and its rows are
        # forms of degree d - j + 1 in it
        s = QQ.scalar(P.triple[2] ** (d - j + 1))
        assert [[s * x for x in row] for row in spec] == projected
        assert exact_rank(ExactMatrix(QQ, concrete)) == exact_rank(C) + exact_rank(ExactMatrix(QQ, spec))


def test_cyclotomic_system():
    f3 = make_field("cyclotomic", 3)
    z = primitive_root(f3)
    pts = [
        ProjectivePoint(f3, (f3.one, z, f3.one)),
        ProjectivePoint(f3, (f3.one, -z, f3.zero)),
        ProjectivePoint(f3, (f3.zero, f3.one, f3.one)),
    ]
    X = FatPointScheme(f3, [(p, 1) for p in pts])
    rep = dim_linear_system(X, 2)
    assert rep.dim == 3
    for f in rep.basis:
        for p in pts:
            assert evaluate(f, p.coeffs).is_zero()


# points in every chart: z != 0 (twice); z = 0 with y != 0, whose y is
# negative once the first coordinate is scaled to 1; and [1:0:0]
_CHART_POINTS = (
    (Fraction(2, 3), -1, 5),
    (3, -2, 0),
    (1, 0, 0),
    (0, 1, 2),
)
_ORACLE_SCHEMES = (
    ((0, 1),), ((0, 2),), ((0, 3),),
    ((1, 1),), ((1, 2),), ((1, 3),),
    ((2, 1),), ((2, 2),), ((2, 3),),
    ((0, 2), (1, 3), (2, 1)),
    ((0, 3), (1, 1), (2, 2), (3, 1)),
    ((1, 2), (2, 3), (3, 2)),
)  # fmt: skip


def _degree_exponents(d):
    return [(i, j, d - i - j) for i in range(d, -1, -1) for j in range(d - i, -1, -1)]


def _sympy_corank(sympy, parts, d):
    # chart-free oracle: every partial of order < m in x, y, z vanishes at
    # the point, built with sympy's own differentiation and rank
    x, y, z = sympy.symbols("x y z")
    monomials = [x**e[0] * y**e[1] * z**e[2] for e in _degree_exponents(d)]
    rows = []
    for k, m in parts:
        at = dict(zip((x, y, z), (sympy.Rational(str(Fraction(c))) for c in _CHART_POINTS[k])))
        for o in range(m):
            for i in range(o + 1):
                for j in range(o - i + 1):
                    orders = (x, i, y, j, z, o - i - j)
                    rows.append([sympy.diff(mono, *orders).subs(at) for mono in monomials])
    if not rows:
        return len(monomials)
    return len(monomials) - sympy.Matrix(rows).rank()


def test_dimensions_match_sympy_oracle_in_every_chart():
    sympy = pytest.importorskip("sympy")
    f3 = make_field("cyclotomic", 3)
    for parts in _ORACLE_SCHEMES:
        X = FatPointScheme(QQ, [(_point(*_CHART_POINTS[k]), m) for k, m in parts])
        X3 = FatPointScheme(
            f3, [(_point(*_CHART_POINTS[k], field=f3), m) for k, m in parts]
        )
        for d in range(6):
            expected = _sympy_corank(sympy, parts, d)
            assert system_dimension(X, d) == expected, (parts, d)
            assert dim_linear_system(X, d).dim == expected, (parts, d)
            assert system_dimension(X3, d) == expected, (parts, d)


def _reference_condition_rows(parts, d):
    """The condition-row loop without templates: for each point the partials
    of order k = min(m - 1, d) in x, y, z, every entry computed from alpha
    and its monomial in place, then zero rows up to C(m+1, 2)."""
    rows = []
    for coords, m in parts:
        one = coords[0] ** 0
        k = min(m - 1, d)
        for alpha in monomial_basis(k):
            row = []
            for e in monomial_basis(d):
                entry = 0 * one
                if all(e[i] >= alpha[i] for i in range(3)):
                    entry = one
                    for i in range(3):
                        entry = entry * coords[i] ** (e[i] - alpha[i]) * perm(e[i], alpha[i])
                row.append(entry)
            rows.append(row)
        rows += [[0 * one] * comb(d + 2, 2) for _ in range(comb(m + 1, 2) - comb(k + 2, 2))]
    return rows


def _reference_chart_rows(parts, d):
    """The chart formulation of the same conditions: for each point the
    derivatives of order < m in the two coordinates u, v other than its
    last nonzero one c, evaluated at the point."""
    rows = []
    for coords, m in parts:
        chart = _last_nonzero(coords)
        u, v = [i for i in range(3) if i != chart]
        one = coords[chart] ** 0
        for au, av in _derivative_orders(m):
            row = []
            for e in monomial_basis(d):
                if e[u] < au or e[v] < av:
                    row.append(0 * one)
                    continue
                e2 = list(e)
                e2[u] -= au
                e2[v] -= av
                coef = perm(e[u], au) * perm(e[v], av)
                row.append(coords[0] ** e2[0] * coords[1] ** e2[1] * coords[2] ** e2[2] * coef)
            rows.append(row)
    return rows


def _rows_cold_and_warm(parts, d, ring):
    """_condition_rows of parts, built by the first call and read from the
    row memo by the second, which must return equal rows, tuples of
    tuples, as lists."""
    cold = _condition_rows(parts, d, ring)
    hits = _point_rows.cache_info().hits
    warm = _condition_rows(parts, d, ring)
    assert _point_rows.cache_info().hits == hits + len(parts)
    assert warm == cold
    assert all(type(r) is tuple for r in cold)
    return [list(r) for r in cold]


def test_condition_rows_match_the_reference_loop():
    rng = random.Random("condition-rows")
    f5 = make_field("cyclotomic", 5)

    def cyc():
        return f5.from_coeffs([Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(4)])

    # charts 2, 1 and 0 over Q, as integer triples; up to m = 5 at d <= 7,
    # so m - 1 > d and its zero rows occur
    triples = [
        (rng.randint(-999, 999), rng.randint(-999, 999), rng.randint(1, 999)),
        (rng.randint(-999, 999), rng.randint(1, 999), 0),
        (rng.randint(1, 999), 0, 0),
    ]
    assert [_last_nonzero(t) for t in triples] == [2, 1, 0]
    for t in triples:
        for m in range(1, 6):
            for d in range(8):
                rows = _rows_cold_and_warm([(t, m)], d, QQ)
                expected = _reference_condition_rows([(t, m)], d)
                assert rows == expected, (t, m, d)
                assert len(rows) == comb(m + 1, 2)
                assert all(type(e) is int for r in rows for e in r)
    # several points in one call, as a scheme gives them
    parts = list(zip(triples, (4, 1, 2)))
    assert _rows_cold_and_warm(parts, 6, QQ) == _reference_condition_rows(parts, 6)
    # integral coordinates over Q(zeta_5), multiplied by Field.mul: the rows
    # of the Scalars with those coordinates, as int tuples
    scalars = [(cyc(), cyc(), cyc()), (cyc(), cyc(), f5.zero), (cyc(), f5.zero, f5.zero)]
    cleared = [tuple(f5.clear_denominators(t)[0]) for t in scalars]
    assert [_last_nonzero(f5.from_integral(t)) for t in cleared] == [2, 1, 0]
    for t in cleared:
        for m in range(1, 6):
            for d in range(8):
                rows = _rows_cold_and_warm([(t, m)], d, f5)
                expected = _reference_condition_rows([(tuple(f5.from_integral(t)), m)], d)
                assert [f5.from_integral(r) for r in rows] == expected, (t, m, d)
                assert all(type(x) is tuple for r in rows for x in r)
    parts = list(zip(cleared, (4, 1, 2)))
    expected = [f5.clear_denominators(r)[0] for r in _reference_condition_rows(
        [(tuple(f5.from_integral(t)), m) for t, m in parts], 6)]
    assert _rows_cold_and_warm(parts, 6, f5) == expected


def test_the_row_memo_stays_bounded():
    bound = _point_rows.cache_info().maxsize
    for x in range(200):
        _condition_rows([((x, 1, 1), 2)], 3, QQ)
    info = _point_rows.cache_info()
    assert info.misses == 200
    assert 0 < info.currsize <= bound


def test_residue_rows_hit_the_row_memo_at_each_map():
    # equal primes give one Residues ring, so a second conditions matrix of
    # the same points finds each point's rows at each map in the memo
    for Z, d in ((example_quartic_config(), 4), (dual_fermat(5), 7)):
        P = ProjectivePoint(Z.field, (2, 7, 1))
        first, second = (conditions_matrix(FatPointScheme.of(Z, (P, d - 1)), d) for _ in range(2))
        for k in range(3):
            p, images, _ = Z.field.certificate_prime(k)
            assert Residues(p) is Residues(int(str(p)))
            for image in images:
                rows = first.residues(p, image, 0)
                assert len(rows) == first.nrows
                hits = _point_rows.cache_info().hits
                assert second.residues(p, image, 0) == rows
                assert _point_rows.cache_info().hits == hits + len(Z) + 1


def test_euler_rows_span_the_chart_rows():
    # the partials of order m - 1 in x, y, z and the chart derivatives of
    # order < m cut out the same conditions at every point (Euler's
    # formula): equal ranks, and stacked, no larger rank, so one row space
    rng = random.Random("euler-rows")
    f5 = make_field("cyclotomic", 5)
    z = primitive_root(f5)
    points = {
        QQ: [(QQ.scalar(rng.randint(-99, 99)), QQ.scalar(rng.randint(-99, 99)), QQ.one),
             (QQ.scalar(rng.randint(-99, 99)), QQ.one, QQ.zero), (QQ.one, QQ.zero, QQ.zero)],
        f5: [(z + 2, f5.scalar(-3), z * z), (1 - z, f5.one, f5.zero), (f5.one, f5.zero, f5.zero)],
    }  # fmt: skip
    for field, triples in points.items():
        for t in triples:
            for m in range(1, 6):
                for d in range(7):
                    euler = _reference_condition_rows([(t, m)], d)
                    chart = _reference_chart_rows([(t, m)], d)
                    ranks = [exact_rank(ExactMatrix(field, rows)) for rows in (euler, chart, euler + chart)]
                    assert ranks == [min(comb(m + 1, 2), comb(d + 2, 2))] * 3, (t, m, d)


def test_the_general_point_rows_bound_the_grid():
    # read off the integral rows of the general point's conditions on
    # I(Z)_d, without a sweep: each of its C(j+1, 2) rows has total degree
    # d - j + 1 in (a, b), so D = C(j+1, 2)(d - j + 1), and the rows' own
    # degrees in a and in b, which the projection onto I(Z)_d lowers, cut
    # the grid's triangle from the square
    for Z, j, d, bounds, points in (
        (example_quartic_config(), 3, 4, (9, 9, 12), 79),
        (dual_fermat(5), 6, 7, (38, 38, 42), 926),
    ):
        rows = symbolic_conditions_matrix(FatPointScheme.of(Z), j, d).integral_rows()
        total = [max((i + k for e in row for i, k in e), default=0) for row in rows]
        assert total == [d - j + 1] * comb(j + 1, 2)
        da = sum(max((i for e in row for i, _ in e), default=0) for row in rows)
        db = sum(max((k for e in row for _, k in e), default=0) for row in rows)
        assert (da, db, sum(total)) == bounds
        grid = [(a, b) for a in range(da + 1) for b in range(db + 1) if a + b <= sum(total)]
        assert len(grid) == points


def test_symbolic_rows_of_non_integer_family_stay_integral():
    # homogeneous rows from primitive integer triples keep every term
    # coefficient integral even when the family parameters are fractions
    Z = family("prop31", {"a": Fraction(-1, 2), "b": Fraction(1, 4)})
    M = symbolic_conditions_matrix(FatPointScheme.of(Z), 3, 4)
    coeffs = [c.coeffs[0] for row in M.rows for e in row for c in e.terms.values()]
    assert coeffs and all(c.denominator == 1 for c in coeffs)


def test_rational_set_agrees_across_fields():
    # the example plus a triple point, over Q, over Q(zeta_2) (degree 1,
    # int coordinates like Q) and lifted to Q(zeta_5) (int tuples): the same
    # ranks and the same RREF bases, which are rational on every field
    Z = example_quartic_config()
    P = (2, -3, 7)
    fields = [QQ, make_field("cyclotomic", 2), make_field("cyclotomic", 5)]
    special = []
    for d in range(1, 7):
        found = []
        for field in fields:
            X = FatPointScheme.of(Z.lift(field), (ProjectivePoint(field, P), 3))
            M = conditions_matrix(X, d)
            basis = nullspace_basis(M)
            found.append((
                exact_rank(M),
                system_dimension(X, d),
                [[x.as_fraction() for x in v] for v in basis],
            ))
            assert all(x.field == field for v in basis for x in v)
        assert found[1:] == found[:1] * 2, d
        rank, dim, basis = found[0]
        assert dim == len(basis) == comb(d + 2, 2) - rank
        special.append(dim > max(comb(d + 2, 2) - 15, 0))
    # the unexpected quartic: dim 1 at d = 4 against an expected dimension 0
    assert special == [False, False, False, True, False, False]


def _layout_branches(source: str) -> list:
    """(top-level name, line) of each branch in source whose test reads a
    field's degree, as field.degree, X.field.degree or a local assigned from
    one, and of each type(...) is tuple or isinstance(..., tuple) test."""
    import ast

    def reads_degree(node, aliases):
        for n in ast.walk(node):
            if isinstance(n, ast.Name) and n.id in aliases:
                return True
            if isinstance(n, ast.Attribute) and n.attr == "degree":
                base = n.value
                if isinstance(base, ast.Name) and base.id == "field":
                    return True
                if isinstance(base, ast.Attribute) and base.attr == "field":
                    return True
        return False

    def tests_tuple(node):
        if isinstance(node, ast.Compare) and isinstance(node.left, ast.Call):
            return (
                isinstance(node.left.func, ast.Name)
                and node.left.func.id == "type"
                and any(isinstance(c, ast.Name) and c.id == "tuple" for c in node.comparators)
            )
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and any(isinstance(n, ast.Name) and n.id == "tuple" for n in ast.walk(node.args[1]))
        )

    found = []
    for top in ast.parse(source).body:
        name = getattr(top, "name", None)
        aliases = set()
        for node in ast.walk(top):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    pairs = [(target, node.value)]
                    if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                        pairs = list(zip(target.elts, node.value.elts))
                    for t, v in pairs:
                        if isinstance(t, ast.Name) and reads_degree(v, aliases):
                            aliases.add(t.id)
        for node in ast.walk(top):
            tests = []
            if isinstance(node, (ast.If, ast.IfExp, ast.While)):
                tests = [node.test]
            elif isinstance(node, ast.comprehension):
                tests = node.ifs
            elif isinstance(node, ast.BoolOp):
                tests = node.values[:-1]
            if any(reads_degree(t, aliases) for t in tests) or tests_tuple(node):
                found.append((name, node.lineno))
    return found


def test_galois_stability_is_read_from_the_points():
    # each sigma_k permutes the points of the dual Fermat F_n, each of
    # multiplicity 1, and fixes an integer sample: stable, whether the
    # sample is added (plus) or given up front
    sample = (7, -3, 1)
    for n in (3, 4, 5, 6):
        Z = dual_fermat(n)
        X = FatPointScheme.of(Z)
        assert X.galois_stable()
        assert X.plus(sample, n - 1).galois_stable()
        assert FatPointScheme.of(Z, (sample, n - 1)).galois_stable()
        assert conditions_matrix(X.plus(sample, n - 1), 2 * n - 3).rational_kernel()
    f5 = make_field("cyclotomic", 5)
    z = primitive_root(f5)
    Z = dual_fermat(5)
    orbit = ProjectivePoint(f5, (1, -z, 0))  # its conjugates (1, -z^k, 0) are points of Z
    rest = [p for p in Z.points if p != orbit]
    # one point of an orbit dropped: unstable, and stable again once it is
    # added back
    dropped = FatPointScheme(f5, [(p, 1) for p in rest])
    assert not dropped.galois_stable()
    assert not conditions_matrix(dropped, 7).rational_kernel()
    assert dropped.plus(orbit, 1).galois_stable()
    # an orbit whose points have unequal multiplicities
    assert not FatPointScheme(f5, [(p, 1) for p in rest] + [(orbit, 2)]).galois_stable()
    assert not FatPointScheme.of(Z).plus((1, z, 1), 3).galois_stable()
    # integer points over Q(zeta_5) are fixed by every sigma_k
    integral = random_config(6, 9, "stable-over-zeta5").lift(f5)
    assert FatPointScheme.of(integral, (ProjectivePoint(f5, sample), 3)).galois_stable()
    # prop33-first at a = zeta_6: sigma_5 sends zeta_6 to its conjugate,
    # which no point of the configuration matches
    assert not FatPointScheme.of(family("prop33-first", {"a": primitive_root(make_field("cyclotomic", 6))})).galois_stable()
    # every scheme over Q, and over Q(zeta_2), is stable
    rng = random.Random("stable-over-q")
    for field in (QQ, make_field("cyclotomic", 2)):
        for t in range(5):
            Z = random_config(rng.randint(1, 9), 50, ("stable", t)).lift(field)
            X = FatPointScheme.of(Z, (ProjectivePoint(field, (rng.randint(1, 9), 1, 1)), rng.randint(1, 4)))
            assert X.galois_stable() and conditions_matrix(X, 4).rational_kernel()
    assert FatPointScheme.of(example_quartic_config()).galois_stable()
    # a matrix of values knows its kernel rational from its entries alone:
    # not with an irrational entry, and with rational ones, whose
    # certificate then eliminates map 0 alone of each prime
    assert not ExactMatrix(f5, [[1, z]]).rational_kernel()
    M = ExactMatrix(f5, [[1, 2, 3], [2, 4, 7]])
    assert M.rational_kernel()
    assert nullspace_basis(M) == [(f5.scalar(-2), f5.one, f5.zero)]
    assert {(key[0], key[3]) for key in poly._eliminations} == {(f5, 0)}


def test_orbit_representatives_skip_conjugates_at_equal_multiplicity():
    # one part per Galois orbit: F3 has 9 points in 6 orbits, F4 12 in 9,
    # F5 15 in 6 and F6 18 in 12, of which 3, 6, 3 and 6 are rational; an
    # integer sample is an orbit of its own
    sample = ProjectivePoint(QQ, (7, -3, 1))
    for n, orbits, rational in ((3, 6, 3), (4, 9, 6), (5, 6, 3), (6, 12, 6)):
        Z = dual_fermat(n)
        X = FatPointScheme.of(Z)
        kept = X.orbit_representatives()
        assert len(kept) == orbits
        assert sum(all(x.is_rational() for x in X.parts[i][0].coeffs) for i in kept) == rational
        # each point left out is sigma_k of a representative before it
        for i in set(range(len(X))) - set(kept):
            p, m = X.parts[i]
            assert any(p in [_conjugate(q, k) for k in Z.field.conjugations] for q, _ in X.parts[:i])
        Y = X.plus(ProjectivePoint(Z.field, sample.triple), n - 1)
        assert Y.orbit_representatives() == kept + (len(X),)
    f5 = make_field("cyclotomic", 5)
    z = primitive_root(f5)
    orbit = [ProjectivePoint(f5, (1, -(z**k), 0)) for k in range(1, 5)]
    # a conjugate pair at different multiplicities is read twice, in either
    # order; at equal multiplicities the later one is left out
    for parts, kept in (
        ([(orbit[0], 1), (orbit[1], 2)], (0, 1)),
        ([(orbit[0], 2), (orbit[1], 1)], (0, 1)),
        ([(orbit[0], 2), (orbit[1], 2)], (0,)),
        ([(orbit[2], 1), (orbit[0], 1), (orbit[3], 3), (orbit[1], 3)], (0, 2)),
    ):
        assert FatPointScheme(f5, parts).orbit_representatives() == kept
    # a point with no conjugate in the scheme is its own representative
    assert FatPointScheme(f5, [(p, 1) for p in orbit[:2]] + [((1, z, 1), 1)]).orbit_representatives() == (0, 2)
    # over Q every part is one
    Z = random_config(7, 9, "orbits-over-q")
    assert FatPointScheme.of(Z, (sample, 3)).orbit_representatives() == tuple(range(8))


def _conjugate(p, k):
    """sigma_k(p) for a point p over Q(zeta_n)."""
    field = p.field
    return ProjectivePoint(field, [field.from_coeffs(field.conjugate(x.coeffs, k)) for x in p.coeffs])


def test_witness_check_reads_one_point_per_orbit(monkeypatch):
    # a rational form is expanded at one point per Galois orbit, and at a
    # rational point over Q; any other form at every point, in the field
    read = []

    def recorded(f, point, m):
        read.append(f.ring)
        return taylor_coefficients(f, point, m)

    monkeypatch.setattr(linsys, "taylor_coefficients", recorded)
    for n in (5, 6):
        Z = dual_fermat(n)
        X = FatPointScheme.of(Z, (ProjectivePoint(Z.field, (2, 7, 1)), n + 2))
        for f in system_basis(X, n + 3):
            read.clear()
            _check_vanishing(f, X)
            kept = X.orbit_representatives()
            rational = [all(x.is_rational() for x in X.parts[i][0].coeffs) for i in kept]
            assert read == [QQ if r else Z.field for r in rational]
            # an irrational multiple of the same form: every point, in the field
            read.clear()
            _check_vanishing(f * primitive_root(Z.field), X)
            assert read == [Z.field] * len(X)
    # prop33-first at a = zeta_6: every basis form is irrational, and each
    # reads all 9 points, the 5 rational ones too, in the field
    f6 = make_field("cyclotomic", 6)
    X = FatPointScheme.of(family("prop33-first", {"a": primitive_root(f6)}))
    forms = system_basis(X, 4)
    assert len(forms) == 6 and not any(all(c.is_rational() for c in f.coeffs) for f in forms)
    read.clear()
    for f in forms:
        _check_vanishing(f, X)
    assert read == [f6] * 9 * 6
    # over Q nothing is converted
    read.clear()
    X = FatPointScheme.of(example_quartic_config(), (_point(2, 7, 1), 3))
    (f,) = system_basis(X, 4)
    assert read == [QQ] * 10


def test_witness_check_refuses_forms_that_miss_a_skipped_point():
    # dual F5: a rational form through its 3 rational points alone, and an
    # irrational one through its 6 orbit representatives alone, each fail
    # at a point of the scheme; the check finds both
    Z = dual_fermat(5)
    field = Z.field
    X = FatPointScheme.of(Z)
    kept = X.orbit_representatives()
    rational = [i for i in kept if all(x.is_rational() for x in X.parts[i][0].coeffs)]
    assert len(rational) == 3
    for chosen, d in ((rational, 2), (kept, 3)):
        W = FatPointScheme(field, [X.parts[i] for i in chosen])
        misses = [f for f in system_basis(W, d) if any(
            any(taylor_coefficients(f, p.coeffs, m)) for p, m in X.parts)]
        assert misses
        for f in misses:
            with pytest.raises(AssertionError, match="order-1 condition"):
                _check_vanishing(f, X)
        assert any(all(c.is_rational() for c in f.coeffs) for f in misses) == (chosen is rational)


def test_the_layout_guard_sees_aliases_and_tuple_tests():
    assert _layout_branches("def g(c):\n    return any(c) if type(c) is tuple else c\n") == [("g", 2)]
    assert _layout_branches("def g(c):\n    return isinstance(c, (int, tuple))\n") == [("g", 2)]
    aliased = "def h(field):\n    phi, f = field.degree, 1\n    return abs if phi == 1 else f\n"
    assert _layout_branches(aliased) == [("h", 3)]
    assert _layout_branches("def k(f, field):\n    return 0 if f.degree else field.degree\n") == []


def test_condition_rows_do_not_branch_on_the_layout():
    # the integral layout is the field's (Field.mul, scale, add, unit, flat
    # and group): in linsys only system_dimension branches on a field's
    # degree, and only to call its rank by the name the benchmark traces
    # over Q; poly branches on it nowhere, as its symbolic grid ranks every
    # point by Bareiss in ints on every field; and neither module tells the
    # layouts apart by testing for tuples
    from pathlib import Path

    import fatpoints.linsys as linsys
    import fatpoints.poly as poly

    for module, allowed in (
        (linsys, {"system_dimension"}),
        (poly, set()),
    ):
        source = Path(module.__file__).read_text()
        assert "mul is None" not in source
        found = _layout_branches(source)
        assert {name for name, _ in found} == allowed, (module.__name__, found)


def test_tangent_derivations_start_at_a_z():
    # modulo Euler, no derivation below degree a_Z is tangent to the lines
    # dual to Z, and one is at a_Z < b_Z, two at a_Z = b_Z: (3, 5) for the
    # example, (n + 1, 2n - 2) for dual F_n.  The example has points such as
    # (1, 1, 0), whose z x e_0 and z x e_1 are parallel; the two cross
    # products with the unit vectors other than the first nonzero
    # coordinate's span each line
    for Z, a, count in ((example_quartic_config(), 3, 1), (dual_fermat(3), 4, 2), (dual_fermat(4), 5, 1),
                        (dual_fermat(5), 6, 1)):
        X = FatPointScheme.of(Z)
        for r, dim in ((a - 1, 0), (a, count)):
            M = linsys.tangency_matrix(X, r)
            assert (M.nrows, M.ncols) == (len(Z) * (r + 1), 3 * comb(r + 2, 2) - comb(r + 1, 2))
            assert len(poly._certify(M)[1]) == dim
    assert (poly._eliminations, poly._certificates) == ({}, {})
