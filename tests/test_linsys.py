"""Conditions matrices, system dimensions, bases, and the symbolic builder."""

import random
import re
from fractions import Fraction
from math import comb

import pytest

from fatpoints import (
    BaseLocusError,
    ExactMatrix,
    FatPointScheme,
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
    random_config,
    rational_map_image,
    symbolic_conditions_matrix,
    system_basis,
)
from fatpoints.geom import mat3_det
from fatpoints.linsys import (
    _chart_index,
    _check_vanishing,
    _condition_rows,
    _derivative_orders,
    _falling,
    system_dimension,
)
from fatpoints.poly import monomial_basis
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


def _failing_one_condition(X, d, point_index, order):
    """f + g, f the first basis form of I(X)_d and g a form that meets every
    condition row of X but the one of (point, order): so f + g fails
    exactly that condition."""
    M = conditions_matrix(X, d)
    assert exact_rank(M) == M.nrows  # so each row is off the others' span
    r = sum(comb(m + 1, 2) for _, m in X.parts[:point_index])
    r += _derivative_orders(X.parts[point_index][1]).index(order)
    rows = M.rows
    others = nullspace_basis(ExactMatrix(X.field, rows[:r] + rows[r + 1:]))
    g = next(v for v in others if sum(a * b for a, b in zip(rows[r], v)))
    return system_basis(X, d)[0] + Form(X.field, d, g)


def test_check_vanishing_raises_on_each_failing_condition():
    # every order of a triple point, a simple point of Z, and every order of
    # a double dual F3 point in chart y over Q(zeta_3)
    Z = example_quartic_config()
    X = FatPointScheme.of(Z, (_point(5, 11, 1), 3))
    F3 = dual_fermat(3)
    Y = FatPointScheme(F3.field, [(F3.points[0], 2)] + [(p, 1) for p in F3.points[1:]])
    assert _chart_index(F3.points[0].coeffs) == 1
    cases = [(X, 5, 9, order) for order in _derivative_orders(3)] + [(X, 5, 0, (0, 0))]
    cases += [(Y, 4, 0, order) for order in _derivative_orders(2)]
    for scheme, d in ((X, 5), (Y, 4)):
        for f in system_basis(scheme, d):
            _check_vanishing(f, scheme)
    for scheme, d, i, order in cases:
        p, m = scheme.parts[i]
        h = _failing_one_condition(scheme, d, i, order)
        with pytest.raises(AssertionError, match=re.escape(f"order-{m} condition at {p!r}")):
            _check_vanishing(h, scheme)


def test_witness_check_scalar_products(monkeypatch):
    # every Scalar product of system_basis is made by its witness check:
    # one derivative chain per fat point, each derivative evaluated by Horner
    calls = [0]
    mul = Scalar.__mul__

    def counted(self, other):
        calls[0] += 1
        return mul(self, other)

    monkeypatch.setattr(Scalar, "__mul__", counted)
    monkeypatch.setattr(Scalar, "__rmul__", counted)
    counts = []
    for Z, j, d in ((example_quartic_config(), 3, 4), (dual_fermat(5), 6, 7)):
        X = FatPointScheme.of(Z, (ProjectivePoint(Z.field, (2, 7, 1)), j))
        calls[0] = 0
        assert len(system_basis(X, d)) == 1
        counts.append(calls[0])
    assert counts == [59, 394]


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
    # the symbolic conditions matrix at P = [a, b, 1] evaluated at integers
    # must equal the concrete conditions matrix with P at those coordinates
    rng = random.Random("symspec")
    for t in range(6):
        Z = random_config(rng.randint(2, 5), 6, ("symspec", t))
        j = rng.randint(1, 3)
        d = rng.randint(j, j + 2)
        M = symbolic_conditions_matrix(Z, j, d)
        a0, b0 = rng.randint(-9, 9), rng.randint(-9, 9)
        P = _point(a0, b0, 1)
        if P in Z.points:
            continue
        sa, sb = QQ.scalar(a0), QQ.scalar(b0)
        spec = [[e.evaluate(sa, sb) for e in row] for row in M.rows]
        concrete = conditions_matrix(FatPointScheme.of(Z, (P, j)), d)
        assert spec == [list(r) for r in concrete.rows]


def test_cyclotomic_system():
    f3 = make_field("cyclotomic", 3)
    from fatpoints import primitive_root

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
    """The condition-row loop without templates: every entry computed
    from its derivative order and monomial in place."""
    rows = []
    for coords, m in parts:
        chart = _chart_index(coords)
        u, v = [i for i in range(3) if i != chart]
        one = coords[chart] ** 0
        zero = 0 * one
        powers = []
        for c in coords:
            row = [one]
            for _ in range(d):
                row.append(row[-1] * c)
            powers.append(row)
        for au, av in _derivative_orders(m):
            row = []
            for e in monomial_basis(d):
                if e[u] < au or e[v] < av:
                    row.append(zero)
                    continue
                coef = _falling(e[u], au) * _falling(e[v], av)
                e2 = list(e)
                e2[u] -= au
                e2[v] -= av
                row.append(powers[0][e2[0]] * powers[1][e2[1]] * powers[2][e2[2]] * coef)
            rows.append(row)
    return rows


def test_condition_rows_match_the_reference_loop():
    rng = random.Random("condition-rows")
    f5 = make_field("cyclotomic", 5)

    def cyc():
        return f5.from_coeffs([Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(4)])

    # charts 2, 1 and 0 over Q, as integer triples
    triples = [
        (rng.randint(-999, 999), rng.randint(-999, 999), rng.randint(1, 999)),
        (rng.randint(-999, 999), rng.randint(1, 999), 0),
        (rng.randint(1, 999), 0, 0),
    ]
    assert [_chart_index(t) for t in triples] == [2, 1, 0]
    for t in triples:
        for m in range(1, 5):
            for d in range(8):
                rows = _condition_rows([(t, m)], d, QQ)
                expected = _reference_condition_rows([(t, m)], d)
                assert rows == expected, (t, m, d)
                assert all(type(e) is int for r in rows for e in r)
    # several points in one call, as a scheme gives them
    parts = [(t, m) for t, m in zip(triples, (4, 1, 2))]
    assert _condition_rows(parts, 6, QQ) == _reference_condition_rows(parts, 6)
    # integral coordinates over Q(zeta_5), multiplied by Field.mul: the rows
    # of the Scalars with those coordinates, as int tuples
    scalars = [(cyc(), cyc(), cyc()), (cyc(), cyc(), f5.zero), (cyc(), f5.zero, f5.zero)]
    cleared = [tuple(f5.clear_denominators(t)[0]) for t in scalars]
    assert [_chart_index(t) for t in cleared] == [2, 1, 0]
    for t in cleared:
        for m in range(1, 5):
            for d in range(8):
                rows = _condition_rows([(t, m)], d, f5)
                expected = _reference_condition_rows([(tuple(f5.from_integral(t)), m)], d)
                assert [f5.from_integral(r) for r in rows] == expected, (t, m, d)
                assert all(type(x) is tuple for r in rows for x in r)
    parts = [(t, m) for t, m in zip(cleared, (4, 1, 2))]
    expected = [f5.clear_denominators(r)[0] for r in _reference_condition_rows(
        [(tuple(f5.from_integral(t)), m) for t, m in parts], 6)]
    assert _condition_rows(parts, 6, f5) == expected


def test_symbolic_rows_of_non_integer_family_stay_integral():
    # homogeneous rows from primitive integer triples keep every term
    # coefficient integral even when the family parameters are fractions
    Z = family("prop31", {"a": Fraction(-1, 2), "b": Fraction(1, 4)})
    M = symbolic_conditions_matrix(Z, 3, 4)
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


def test_condition_rows_do_not_branch_on_the_layout():
    # the integral layout is the field's: in linsys only _row_triple, which
    # takes the coordinates, and system_dimension, which ranks over Q
    # without an ExactMatrix, may branch on the field's degree
    import ast
    from pathlib import Path

    import fatpoints.linsys as linsys

    source = Path(linsys.__file__).read_text()
    assert "mul is None" not in source

    def mentions_degree(node):
        return any(
            isinstance(n, ast.Attribute) and n.attr == "degree"
            or isinstance(n, ast.Name) and n.id == "degree"
            for n in ast.walk(node)
        )

    branching = []
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            tests = []
            if isinstance(node, (ast.If, ast.IfExp, ast.While)):
                tests = [node.test]
            elif isinstance(node, ast.comprehension):
                tests = node.ifs
            elif isinstance(node, ast.BoolOp):
                tests = node.values[:-1]
            if any(mentions_degree(t) for t in tests):
                branching.append((getattr(top, "name", None), node.lineno))
    allowed = {"_row_triple", "system_dimension"}
    assert branching and {name for name, _ in branching} <= allowed, branching
