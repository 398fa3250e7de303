"""Forms, monomial order, exact matrix kernels and the symbolic certificate."""

import dataclasses
import operator
import random
import sys
import threading
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

import fatpoints.linsys as linsys
import fatpoints.poly as poly
import fatpoints.unexpected as unexpected
from fatpoints import (
    ExactMatrix,
    FatPointScheme,
    Field,
    Form,
    GeneralPointStrategy,
    GenericRankCertificate,
    ParamRing,
    PointConfiguration,
    ProjectivePoint,
    QQ,
    Scalar,
    apply_transform,
    conditions_matrix,
    dual_fermat,
    evaluate,
    exact_rank,
    example_quartic_config,
    family,
    generic_dim,
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


def _monomial_sum(f, point):
    """Reference value: the plain sum of c * x^e0 * y^e1 * z^e2."""
    powers = []
    for x in point:
        row = [f.ring.one]
        for _ in range(f.degree):
            row.append(row[-1] * f.ring.coerce(x))
        powers.append(row)
    total = f.ring.zero
    for e, c in zip(monomial_basis(f.degree), f.coeffs):
        total = total + c * powers[0][e[0]] * powers[1][e[1]] * powers[2][e[2]]
    return total


def test_evaluate_matches_the_monomial_sum():
    # seeded forms of degree 0..8, some sparse, at triples with a coordinate
    # 1 in each place, with none, and with one, two or three zeros
    rng = random.Random("horner")
    f5 = make_field("cyclotomic", 5)
    ring = ParamRing(QQ)

    def rational():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 4))

    def cyclotomic():
        return f5.from_coeffs([rational() for _ in range(4)])

    def parametric():
        return rational() + rational() * rng.choice((ring.a, ring.b))

    for draw, one in ((rational, 1), (cyclotomic, f5.one), (parametric, ring.one)):
        ring_of = {rational: QQ, cyclotomic: f5, parametric: ring}[draw]
        for d in range(9):
            n = comb(d + 2, 2)
            f = Form.from_coeffs(ring_of, d, [draw() if rng.random() < 0.7 else 0 for _ in range(n)])
            triples = [tuple(one if i == k else draw() for i in range(3)) for k in range(3)]
            triples.append(tuple(draw() for _ in range(3)))
            for zeros in ((0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)):
                triples.append(tuple(0 if i in zeros else draw() for i in range(3)))
                triples.append(tuple(0 if i in zeros else one for i in range(3)))
            if draw is parametric:
                triples.append((ring.a, ring.b, ring.one))
            for t in triples:
                assert evaluate(f, t) == _monomial_sum(f, t), (d, f, t)


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
                # M v = 0, row by row
                assert all(not sum((a * x for a, x in zip(row, v)), field.zero) for row in M.rows)
        empty = ExactMatrix(field, [])
        assert (exact_rank(empty), nullspace_basis(empty)) == (0, [])


def _gauss_jordan_kernel(rows, ncols, field):
    """Reference: the RREF standard kernel basis by Gauss-Jordan over Scalars."""
    rows = [list(r) for r in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [e * inv for e in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [field.zero] * ncols
        v[f] = field.one
        for i, p in enumerate(pivots):
            v[p] = -rows[i][f]
        basis.append(v)
    return basis


def _fraction_tuples(vectors):
    """Every coordinate as its canonical tuple of power-basis Fractions."""
    return [[tuple(Fraction(c) for c in x.coeffs) for x in v] for v in vectors]


def _kernel_corpus(field, rng, count):
    """Seeded matrices over the field with the edge cases: rank-deficient
    products A B, zero columns, the zero matrix, a single row and a matrix
    of full column rank."""

    def entry():
        if rng.random() < 0.2:
            return field.zero
        return field.from_coeffs(
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(field.degree)]
        )

    out = []
    for _ in range(count):
        m, n, k = rng.randint(1, 6), rng.randint(1, 7), rng.randint(1, 4)
        A = [[entry() for _ in range(k)] for _ in range(m)]
        B = [[entry() for _ in range(n)] for _ in range(k)]
        rows = [[sum((A[i][t] * B[t][j] for t in range(k)), field.zero) for j in range(n)] for i in range(m)]
        for j in rng.sample(range(n), rng.randint(0, min(2, n))):
            for row in rows:
                row[j] = field.zero
        out.append(rows)
    out.append([[field.zero] * 4 for _ in range(3)])
    out.append([[entry() for _ in range(5)]])
    out.append([[field.one if i == j else field.zero for j in range(3)] for i in range(4)])
    return out


KERNEL_FIELDS = [QQ] + [make_field("cyclotomic", n) for n in (3, 4, 5, 6, 7)]


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
def test_nullspace_basis_matches_gauss_jordan_reference(field):
    rng = random.Random(f"kernel-{field!r}")
    corpus = _kernel_corpus(field, rng, 30)
    assert nullspace_basis(ExactMatrix(field, corpus[-1])) == []  # full column rank
    for rows in corpus:
        ncols = len(rows[0])
        basis = nullspace_basis(ExactMatrix(field, rows))
        assert _fraction_tuples(basis) == _fraction_tuples(_gauss_jordan_kernel(rows, ncols, field))


def test_nullspace_basis_matches_sympy_over_q():
    sympy = pytest.importorskip("sympy")
    for rows in _kernel_corpus(QQ, random.Random("kernel-sympy"), 30):
        basis = nullspace_basis(ExactMatrix(QQ, rows))
        rational = sympy.Matrix([[sympy.Rational(str(x.as_fraction())) for x in r] for r in rows])
        expected = [[Fraction(str(c)) for c in v] for v in rational.nullspace()]
        assert [[x.as_fraction() for x in v] for v in basis] == expected


def test_nullspace_basis_over_q_makes_no_scalar_products(monkeypatch):
    matrices = [ExactMatrix(QQ, rows) for rows in _kernel_corpus(QQ, random.Random("kernel-count"), 10)]
    calls = {"__mul__": 0, "__rmul__": 0, "inverse": 0}

    def counted(name):
        fn = getattr(Scalar, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(Scalar, name, counted(name))
    kernels = [nullspace_basis(M) for M in matrices]
    assert sum(len(k) for k in kernels) > 0
    assert calls == {"__mul__": 0, "__rmul__": 0, "inverse": 0}


def _exact_quotient(mul, x, inverse) -> tuple:
    """x / u over Z[zeta_n], for u with Field.integral_inverse inverse, by
    the field's product mul; the quotient must be integral, and a remainder
    raises ArithmeticError."""
    num, den = inverse
    out = []
    for c in mul(x, num):
        q, rem = divmod(c, den)
        if rem:
            raise ArithmeticError("inexact division in fraction-free elimination")
        out.append(q)
    return tuple(out)


def _echelon_cyc(rows, ncols, field: Field):
    """Reference: fraction-free (Bareiss) forward elimination over
    Z[zeta_n], in place; returns (rank, pivot cols).

    The Field.integral_inverse of a pivot is taken only when a later sweep
    divides by it, so never for the last pivot.
    """
    zero = (0,) * field.degree
    mul = field.mul
    m = len(rows)
    prev = None  # the previous pivot, divided out by this sweep
    prev_div = None  # (int tuple numerator of 1/prev, int denominator)
    pr = 0
    pivots = []
    for c in range(ncols):
        piv_r = None
        for r in range(pr, m):
            if any(rows[r][c]):
                piv_r = r
                break
        if piv_r is None:
            continue
        if prev is not None and pr + 1 < m:
            prev_div = field.integral_inverse(prev)
        rows[pr], rows[piv_r] = rows[piv_r], rows[pr]
        piv = rows[pr][c]
        rowp = rows[pr]
        for r in range(pr + 1, m):
            rowr = rows[r]
            rc = rowr[c]
            rc_nonzero = any(rc)
            new = []
            for cc in range(ncols):
                x, y = rowr[cc], rowp[cc]
                a = mul(piv, x) if any(x) else zero
                bb = mul(rc, y) if rc_nonzero and any(y) else zero
                v = tuple(map(operator.sub, a, bb))
                if prev_div is not None and any(v):
                    v = _exact_quotient(mul, v, prev_div)
                new.append(v if any(v) else zero)
            rows[r] = new
        prev = piv
        pivots.append(c)
        pr += 1
        if pr == m:
            break
    return len(pivots), pivots


def _echelon(rows, ncols: int, field: Field):
    """Reference: Bareiss elimination of _integral_rows output in place,
    (rank, pivot cols), over Z by the grid's poly._echelon_int and over
    Z[zeta_n] by _echelon_cyc."""
    if field.degree == 1:
        return poly._echelon_int(rows, ncols)
    return _echelon_cyc(rows, ncols, field)


def _kernel_from_echelon(field: Field, rows, pivots, ncols: int) -> list:
    """Reference: the RREF kernel basis of Bareiss echelon rows U, by
    fraction-free back substitution (the kernel path before residue
    certificates).

    Let p_i be the pivot column of row i, r the rank and D = U[r-1][p_(r-1)],
    the last Bareiss pivot and so the determinant of the pivot minor.  The
    basis vector of a free column f is 1 at f, y_i / D at p_i and 0 at the
    other free columns, where, for i = r-1, ..., 0,

        y_i = -(D U[i][f] + sum over k > i of U[i][p_k] y_k) / U[i][p_i].

    D times the vector solves the pivot minor's system with right-hand side
    -D times column f, so by Cramer's rule each y_i is a minor of the
    input: every division is exact in Z or Z[zeta_n], and a remainder
    raises ArithmeticError.  Over Z[zeta_n] a pivot is divided through its
    Field.integral_inverse, as in _echelon_cyc.  The last division, by D,
    happens only in Field.from_integral.
    """
    if field.degree == 1:
        mul, sub = operator.mul, operator.sub

        def embed(n):
            return n

        # over Z the inverse of u is 1 over the denominator u
        inverses = [(1, rows[i][p]) for i, p in enumerate(pivots)]

        def divide(x, inverse):
            q, rem = divmod(x, inverse[1])
            if rem:
                raise ArithmeticError("inexact division in fraction-free elimination")
            return q

    else:
        mul = field.mul

        def sub(u, v):
            return tuple(x - y for x, y in zip(u, v))

        def embed(n):
            return (n,) + (0,) * (field.degree - 1)

        inverses = [field.integral_inverse(rows[i][p]) for i, p in enumerate(pivots)]

        def divide(x, inverse):
            return _exact_quotient(mul, x, inverse)

    r = len(pivots)
    zero = embed(0)
    D = rows[r - 1][pivots[-1]] if r else embed(1)
    num_d, den_d = inverses[-1] if r else (embed(1), 1)
    pivset = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivset:
            continue
        y = [zero] * r
        for i in range(r - 1, -1, -1):
            row = rows[i]
            s = sub(zero, mul(D, row[f]))
            for k in range(i + 1, r):
                s = sub(s, mul(row[pivots[k]], y[k]))
            y[i] = divide(s, inverses[i])
        v = [zero] * ncols
        v[f] = embed(den_d)
        for p, yi in zip(pivots, y):
            v[p] = mul(yi, num_d)
        basis.append(tuple(field.from_integral(v, den_d)))
    return basis


def _bareiss_reference(rows, field):
    """(rank, RREF kernel basis) by Bareiss elimination (_echelon) and
    _kernel_from_echelon."""
    ncols = len(rows[0]) if rows else 0
    integral = poly._integral_rows(rows, field)
    rank, pivots = _echelon(integral, ncols, field)
    return rank, _kernel_from_echelon(field, integral, pivots, ncols)


def _count_calls(monkeypatch, owner, name):
    """Count the calls of owner.name from here on; returns the counter."""
    calls = [0]
    fn = getattr(owner, name)

    def counted(*args):
        calls[0] += 1
        return fn(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _count_primes(monkeypatch):
    """Count the certificate primes drawn from here on, over every field."""
    return _count_calls(monkeypatch, Field, "certificate_prime")


def test_integer_kernel_check_rejects_corrupted_products(monkeypatch):
    class OffByOne(int):
        # an entry whose products come out one too large
        def __mul__(self, other):
            return int(self) * int(other) + 1

        __rmul__ = __mul__

    rows = [[2, 1, 1], [4, 7, 3]]
    primes = _count_primes(monkeypatch)
    # the RREF kernel (-2/5, -1/5, 1), certified with one prime
    x0, x1 = QQ.scalar(Fraction(-2, 5)), QQ.scalar(Fraction(-1, 5))
    assert nullspace_basis(ExactMatrix(QQ, rows)) == [(x0, x1, QQ.one)]
    assert primes[0] == 1
    # the residues are right, but in the exact check the entry 1 times
    # -1/5's numerator -1 comes out 0: no candidate passes, so every prime
    # of the budget is tried before the certificate gives up
    rows[0][1] = OffByOne(1)
    primes[0] = 0
    poly._eliminations.clear()
    with pytest.raises(ArithmeticError):
        poly._certify(ExactMatrix.from_integral(QQ, rows, 3))
    assert primes[0] == poly._prime_budget(rows, QQ) + 1


def test_cyclotomic_kernel_check_rejects_corrupted_products(monkeypatch):
    f3 = make_field("cyclotomic", 3)
    M = ExactMatrix(f3, [[2, 1, 1], [4, 7, 3]])
    expected = [tuple(v) for v in _gauss_jordan_kernel(M.rows, 3, f3)]
    primes = _count_primes(monkeypatch)
    assert nullspace_basis(M) == expected
    assert primes[0] == 1
    products = {"mul": f3.mul, "scale": f3.scale}
    irrational = ExactMatrix(f3, [[1, primitive_root(f3), 2]])
    assert nullspace_basis(irrational) == [
        tuple(v) for v in _gauss_jordan_kernel(irrational.rows, 3, f3)
    ]

    def corrupted(product):
        def wrong(u, v):
            w = product(u, v)
            return (w[0] + 1, *w[1:]) if v != 0 else w

        return wrong

    # the exact check's products are Field.scale for the int at the free
    # column and for the ints of a rational read, and Field.mul for the
    # coordinates of a lifted one: the residues still give the right
    # candidate, which the check rejects where one of its products is
    # wrong.  M's kernel is rational, so a wrong Field.mul leaves it
    # certified at prime 1
    for N, name in ((M, "mul"), (M, "scale"), (irrational, "mul"), (irrational, "scale")):
        monkeypatch.setattr(f3, name, corrupted(products[name]))
        primes[0] = 0
        poly._certificates.clear()  # the kept certificate would skip the check
        if N is M and name == "mul":
            assert nullspace_basis(N) == expected
            assert primes[0] == 1
        else:
            with pytest.raises(ArithmeticError):
                nullspace_basis(N)
            # certificates over Q(zeta_n) draw primes 1 to the budget, not prime 0
            rows = poly._integral_rows(N.rows, f3)
            assert primes[0] == poly._prime_budget(rows, f3)
        monkeypatch.setattr(f3, name, products[name])


def _dual_fermat_scheme(n, d):
    """The dual Fermat F_n plus a (d-1)-fold sample point, whose conditions
    at degree d give the rank drops of the paper's Fermat range."""
    Z = dual_fermat(n)
    P = GeneralPointStrategy().sample_point(Z.field, 0)
    return FatPointScheme.of(Z, (P, d - 1))


def _dual_fermat_sample(n, d):
    """Conditions matrix of _dual_fermat_scheme(n, d) at degree d."""
    return conditions_matrix(_dual_fermat_scheme(n, d), d)


def test_cyclotomic_conditions_build_no_scalars(monkeypatch):
    # the rows over Q(zeta_5) are integral from the points' coordinates on:
    # neither a Scalar product nor a cleared denominator on the way to the
    # rank of dual F5 with a 6-fold point at degree 7
    X = _dual_fermat_scheme(5, 7)
    field = X.field
    products = _count_calls(monkeypatch, Scalar, "__mul__")
    reflected = _count_calls(monkeypatch, Scalar, "__rmul__")
    cleared = _count_calls(monkeypatch, Field, "clear_denominators")
    M = conditions_matrix(X, 7)
    assert linsys.system_dimension(X, 7) == 1
    assert exact_rank(M) == 35
    assert (products[0], reflected[0], cleared[0]) == (0, 0, 0)
    # Scalar rows are derived on read, and clear back to the integral rows
    assert all(type(x) is Scalar and x.field == field for row in M.rows for x in row)
    assert [tuple(r) for r in poly._integral_rows(M.rows, field)] == M.integral_rows()
    # a matrix built from Scalars keeps the rows it was given
    given = tuple(tuple(x * field.from_coeffs([Fraction(1, 3), 2]) for x in row) for row in M.rows)
    assert ExactMatrix(field, given).rows == given


def test_residue_rows_are_the_images_of_the_integral_rows():
    # a conditions matrix over Q(zeta_n) builds its rows at each map of a
    # certificate prime from the images of its points' integral triples:
    # they must be the images of its integral rows, reduced, since _forward
    # packs each row into slots that an unreduced entry would carry out of
    matrices = [_dual_fermat_sample(n, d) for n, d in ((5, 7), (6, 8), (6, 9))]
    for n in (3, 5, 12):
        field = make_field("cyclotomic", n)
        p, images, _ = field.certificate_prime(0)
        zeta = primitive_root(field)
        (w,) = images[0](field.clear_denominators([zeta])[0])
        # the last coordinate zeta - w of the first point vanishes at prime
        # 0's first root, and its rows built from that image must still be
        # the images of its rows
        X = FatPointScheme(field, [((3, zeta, zeta - w), 3), ((zeta, 1, 0), 2), ((1, 0, 0), 1)])
        t, _ = X._triples[0]
        assert t[2] != field.scale(field.unit, 0) and images[0](t)[2] == 0
        matrices += [conditions_matrix(X, d) for d in (1, 2, 4)]
    for M in matrices:
        rows = M.integral_rows()
        for k in range(3):
            p, images, _ = M.ring.certificate_prime(k)
            for image in images:
                residues = M.residues(p, image, 0)
                assert residues == [tuple(image(r)) for r in rows]
                assert all(0 <= x < p for r in residues for x in r)
        # an elimination that resumes after a shared prefix asks for the
        # rows from any start on, inside a point's rows or past the last
        assert all(M.residues(p, image, s) == residues[s:] for s in range(M.nrows + 1))


def test_symbolic_path_builds_no_scalars(monkeypatch):
    # from Z's integral conditions matrix to the grid: the symbolic matrix
    # reads the kernel of Z's conditions matrix from its certificate in
    # integers and projects the general point's rows, read off the templates
    # as integer terms, onto it, and the grid ranks that projection, all with
    # no Scalar product; the degree bounds are the projection's own
    products = _count_calls(monkeypatch, Scalar, "__mul__")
    reflected = _count_calls(monkeypatch, Scalar, "__rmul__")
    derived = _count_calls(monkeypatch, Field, "from_integral")
    for Z, expected in (
        (example_quartic_config(), (5, (1, 1), 9, 9, 79)),
        (dual_fermat(3), (6, (1, 2), 10, 10, 85)),
    ):
        products[0] = reflected[0] = derived[0] = 0
        M = symbolic_conditions_matrix(FatPointScheme.of(Z), 3, 4)
        assert (products[0], reflected[0], derived[0]) == (0, 0, 0)
        cert = symbolic_rank_bound(M)
        assert (products[0], reflected[0], derived[0]) == (0, 0, 0)
        assert cert == GenericRankCertificate(*expected)


def _derivative_rows(X, d):
    """Reference condition rows of X at degree d in Scalars: for each point
    and derivative order (a_u, a_v) below its multiplicity, u and v the
    coordinates other than its last nonzero one, the value at the point's
    Scalar triple of that derivative of each monomial of degree d."""
    monomials = [_monomial_form(d, e, ring=X.field) for e in monomial_basis(d)]
    rows = []
    for p, m in X.parts:
        t = p.triple
        u, v = [i for i in range(3) if i != max(i for i in range(3) if t[i])]
        for order in range(m):
            for au in range(order, -1, -1):
                row = []
                for f in monomials:
                    for var, times in ((u, au), (v, order - au)):
                        for _ in range(times):
                            f = partial_derivative(f, var)
                    row.append(evaluate(f, t))
                rows.append(row)
    return rows


def test_non_integral_cyclotomic_points_match_gauss_jordan():
    # points whose coordinates have denominators and zeta-parts: their rows
    # are built from cleared coordinates, a nonzero multiple of the Scalar
    # rows, so ranks and RREF kernels are those of the Scalar rows
    f5 = make_field("cyclotomic", 5)
    z = primitive_root(f5)
    P1 = (Fraction(1, 2) + z / 3, Fraction(5, 7), 1)
    P2 = (Fraction(-3, 4), 1 - z * z / 5, Fraction(2, 9))
    P3 = (Fraction(1, 6), z / 11, 0)
    P4 = (z**3 / 8, Fraction(7, 3), z + Fraction(1, 2))
    for parts in ([(P1, 2), (P2, 2)], [(P1, 2), (P2, 1), (P3, 1), (P4, 3)]):
        X = FatPointScheme(f5, parts)
        assert any(c.denominator > 1 for p, _ in X.parts for x in p.triple for c in x.coeffs)
        for d in range(1, 5):
            M = conditions_matrix(X, d)
            assert all(type(x) is Scalar and x.field == f5 for row in M.rows for x in row)
            expected = _gauss_jordan_kernel(M.rows, M.ncols, f5)
            assert exact_rank(M) == M.ncols - len(expected)
            assert nullspace_basis(M) == [tuple(v) for v in expected]
            # the same kernel from rows of derivatives taken on the stored
            # Scalar triples
            scalar_rows = _derivative_rows(X, d)
            assert _gauss_jordan_kernel(scalar_rows, M.ncols, f5) == expected
    # the double line through P1 and P2 drops the rank at d = 2
    assert exact_rank(conditions_matrix(FatPointScheme(f5, [(P1, 2), (P2, 2)]), 2)) == 5


def test_cyclotomic_elimination_inverts_pivots_by_integer_norms(monkeypatch):
    # dual F5 with a 6-fold general point at degree 7: 15 + 21 rows, 36
    # columns, rank 35, and one kernel vector, the unexpected septic
    M = _dual_fermat_sample(5, 7)
    field = M.ring
    assert (M.nrows, M.ncols) == (36, 36)
    scalar = _count_calls(monkeypatch, Scalar, "inverse")
    integral = _count_calls(monkeypatch, Field, "integral_inverse")
    certificates = _count_calls(monkeypatch, poly, "_certify")
    primes = _count_primes(monkeypatch)
    # the full-rank test draws prime 0, and the rank and the kernel are
    # residue certificates of two primes below 2^62 each, without prime 0,
    # which invert nothing over Q(zeta_5); the kernel is certified afresh,
    # not read from the rank's certificate
    assert exact_rank(M) == 35
    poly._certificates.clear()
    (v,) = nullspace_basis(M)
    assert (certificates[0], primes[0]) == (2, 1 + 2 + 2)
    assert (scalar[0], integral[0]) == (0, 0)
    rows = poly._integral_rows(M.rows, field)
    poly._eliminations.clear()
    pivots, _ = poly._certify(ExactMatrix.from_integral(field, rows, 36))
    (free,) = set(range(36)) - set(pivots)
    assert v[free] == field.one
    assert all(not sum((a * x for a, x in zip(row, v)), field.zero) for row in M.rows)


@pytest.mark.parametrize("n, d", [(5, 7), (6, 8), (6, 9)])
def test_certificate_matches_bareiss_on_dual_fermat_samples(n, d):
    M = _dual_fermat_sample(n, d)
    rank, kernel = _bareiss_reference(M.rows, M.ring)
    assert exact_rank(M) == rank < min(M.nrows, M.ncols)
    assert nullspace_basis(M) == kernel


def _packed_echelon(residues, ncols, p, slack=None):
    """poly._forward on fresh lists, by default to the end: the echelon as
    (pivot column, residues) pairs, each packed row read through the slot
    layout of poly._packing, and the sizes."""
    echelon, sizes = [], []
    slack = len(residues) if slack is None else slack
    poly._forward([list(r) for r in residues], ncols, p, echelon, sizes, slack)
    slots, shifts, mask = poly._packing(ncols, p)
    rows = [(c, list(slots.unpack(prow.to_bytes(slots.size, "little")))) for _, prow, c in echelon]
    # one struct call reads all of each slot, at every width
    assert all(shift == shifts[c] for shift, _, c in echelon)
    assert [row for _, row in rows] == [[prow >> s & mask for s in shifts] for _, prow, _ in echelon]
    return rows, sizes


def test_certificate_survives_a_prime_dividing_the_pivot_minor(monkeypatch):
    # over Q: prime 0 divides the pivot p0, so mod p0 column 0 is zero and
    # the pivots [1, 2] come out later than the true [0, 2]; prime 1
    # restores them and alone reconstructs -1/p0
    p0, p1 = QQ.certificate_prime(0)[0], QQ.certificate_prime(1)[0]
    primes = _count_primes(monkeypatch)
    M = ExactMatrix(QQ, [[p0, 1, 0], [0, 0, 1]])
    assert nullspace_basis(M) == [(QQ.scalar(Fraction(-1, p0)), QQ.one, QQ.zero)]
    assert primes[0] == 2
    # prime 1 divides the pivot p1, so its pivots come after prime 0's and
    # it is dropped; -1/p1, with p1 above the square root of half of p0
    # times prime 2, needs prime 3 as well
    primes[0] = 0
    M = ExactMatrix(QQ, [[p1, 1, 0], [0, 0, 1]])
    assert nullspace_basis(M) == [(QQ.scalar(Fraction(-1, p1)), QQ.one, QQ.zero)]
    assert primes[0] == 4
    # over Q(zeta_n): zeta - w vanishes at the first root w of the first
    # prime a certificate draws and at no other root, so that prime's roots
    # disagree on the pivots
    for n in (3, 5, 12):
        field = make_field("cyclotomic", n)
        p, images, _ = field.certificate_prime(field.certificate_start)
        zeta = primitive_root(field)
        (w,) = images[0](field.clear_denominators([zeta])[0])
        rows = [[zeta - w, field.one]]
        integral = poly._integral_rows(rows, field)
        found = [[c for c, _ in _packed_echelon([image(r) for r in integral], 2, p)[0]] for image in images]
        assert found == [[1]] + [[0]] * (len(images) - 1)
        primes[0] = 0
        assert nullspace_basis(ExactMatrix(field, rows)) == [
            tuple(v) for v in _gauss_jordan_kernel(rows, 2, field)
        ]
        assert primes[0] > 1


def test_corrupted_reconstruction_is_never_returned(monkeypatch):
    f5 = make_field("cyclotomic", 5)
    zeta = primitive_root(f5)
    M = ExactMatrix(f5, [[1, zeta, 2], [zeta, zeta * zeta, 2 * zeta]])
    expected = nullspace_basis(M)
    poly._certificates.clear()  # each read below certifies M afresh
    reconstruct = poly._reconstruct
    corrupted = [0]

    def first_wrong(values, modulus):
        out = reconstruct(values, modulus)
        if out is not None and not corrupted[0]:
            corrupted[0] += 1
            nums, den = out
            return [nums[0] + 1, *nums[1:]], den
        return out

    monkeypatch.setattr(poly, "_reconstruct", first_wrong)
    primes = _count_primes(monkeypatch)
    # the kernel (-zeta, 1, 0), (-2, 0, 1) is not rational, so it is read
    # lifted: the wrong candidate of prime 1 fails the check, and prime 2
    # mends it
    assert nullspace_basis(M) == expected
    assert corrupted[0] == 1 and primes[0] == 2

    def always_wrong(values, modulus):
        out = reconstruct(values, modulus)
        return None if out is None else ([out[0][0] + 1, *out[0][1:]], out[1])

    monkeypatch.setattr(poly, "_reconstruct", always_wrong)
    poly._certificates.clear()
    with pytest.raises(ArithmeticError):
        nullspace_basis(M)


def test_kernels_are_read_rational_first_and_lifted_where_maps_differ(monkeypatch):
    # the Galois groups of Q(zeta_8) and Q(zeta_12) are not cyclic: each
    # kernel below lies in a quadratic subfield, where maps 0 and 1 of a
    # prime agree, as zeta_12^3 = i and zeta_8 + zeta_8^3 = sqrt(-2) have
    # equal images there, and the other maps do not; the rows have
    # irrational entries, so the kernel is read lifted from every map, and
    # the first prime certifies it
    f8, f12 = make_field("cyclotomic", 8), make_field("cyclotomic", 12)
    z8, z12 = primitive_root(f8), primitive_root(f12)
    primes = _count_primes(monkeypatch)
    for field, rows in (
        (f12, [[1, z12**3]]),
        (f8, [[1, z8 + z8**3]]),
        (f12, [[1, z12 + z12**5, 3], [2, 1, z12**3]]),
    ):
        M = ExactMatrix(field, rows)
        primes[0] = 0
        assert nullspace_basis(M) == [tuple(v) for v in _gauss_jordan_kernel(M.rows, M.ncols, field)]
        assert primes[0] == 1
    # -(1 + p z), p prime 1, is -1 at every map of prime 1: the kernel is
    # rational mod p but not rational, and the row's irrational entry has it
    # read lifted from prime 1 on, in 3 primes, not up to the budget of 9
    f3 = make_field("cyclotomic", 3)
    M = ExactMatrix(f3, [[1, 1 + f3.certificate_prime(1)[0] * primitive_root(f3)]])
    primes[0] = 0
    assert nullspace_basis(M) == [tuple(v) for v in _gauss_jordan_kernel(M.rows, 2, f3)]
    assert primes[0] == 3
    assert poly._prime_budget(M.integral_rows(), f3) == 9
    # dual F5 with a 6-fold point at degree 7 is Galois-stable, so its
    # kernel is rational: its rank certificate eliminates map 0 alone of
    # prime 1, where the rational read fails, and of prime 2, where it
    # succeeds
    M = _dual_fermat_sample(5, 7)
    assert M.rational_kernel()
    primes[0] = 0
    assert exact_rank(M) == 35
    poly._certificates.clear()  # the kernel is certified afresh, not read from the rank's
    (v,) = nullspace_basis(M)
    assert all(not sum((a * x for a, x in zip(row, v)), M.ring.zero) for row in M.rows)
    assert primes[0] == 1 + 2 + 2
    poly._eliminations.clear()
    poly._certificates.clear()
    assert exact_rank(M) == 35
    assert sorted(key[2:] for key in poly._eliminations) == [(0, 0), (1, 0), (2, 0)]


def test_a_kernel_wrongly_known_rational_costs_primes_only(monkeypatch):
    # the flag only chooses how a kernel is read: a matrix that claims a
    # rational kernel it does not have is read at map 0 in vain up to the
    # budget, where every map is eliminated and the lifted read certifies
    # the true kernel, which a lifted read from the start finds at prime 1
    class KnownRational(ExactMatrix):
        __slots__ = ()

        def rational_kernel(self):
            return True

    f12 = make_field("cyclotomic", 12)
    z = primitive_root(f12)
    primes = _count_primes(monkeypatch)
    for rows in ([[1, z**3]], [[1, z + z**5, 3], [2, 1, z**3]]):
        M = KnownRational(f12, rows)
        primes[0] = 0
        assert nullspace_basis(M) == [tuple(v) for v in _gauss_jordan_kernel(M.rows, M.ncols, f12)]
        assert primes[0] == poly._prime_budget(M.integral_rows(), f12)


def _annihilates_every_row(M, coords) -> bool:
    """Whether the vector with integral coordinates coords annihilates
    every integral row of M, by Field.mul and Field.add."""
    field = M.ring
    zero = field.scale(field.unit, 0)
    for row in M.integral_rows():
        total = zero
        for x, c in zip(row, coords):
            total = field.add(total, field.mul(x, c))
        if total != zero:
            return False
    return True


def _rational_kernel(M, rows):
    """The RREF basis over Q of the rational vectors that annihilate rows,
    integral rows of M: each row split into its coordinate rows."""
    field = M.ring
    split = [[field.flat(x)[i] for x in row] for row in rows for i in range(field.degree)]
    return nullspace_basis(ExactMatrix.from_integral(QQ, split, M.ncols))


def test_orbit_rows_accept_only_what_every_row_accepts(monkeypatch):
    # every certificate of the F3-F6 range scans, Z's own rank drops and
    # the samples' alike, is Galois-stable and read rational, and checks
    # its vectors on its orbit representatives' rows alone: each accepted
    # vector annihilates every integral row exactly, and the same vector
    # with any one entry changed is refused on the orbit rows
    certify, seen, checked = poly._certify, [], []
    annihilates = poly._annihilates

    def recorded(M):
        found = certify(M)
        seen.append((M, found))
        return found

    def counted(rows, *args):
        checked.append(len(rows))
        return annihilates(rows, *args)

    monkeypatch.setattr(poly, "_certify", recorded)
    monkeypatch.setattr(poly, "_annihilates", counted)
    assert [unexpected.fermat_unexpected_range(n) for n in (3, 4, 5, 6)] == [[], [], [7], [8, 9]]
    shapes = [(M.nrows, len(M.orbit_rows())) for M, _ in seen]
    assert shapes == [(9, 6), (12, 9), (15, 6), (15, 6), (15, 6)] + [(36, 27)] * 3 + [
        (18, 12), (18, 12), (18, 12)] + [(46, 40)] * 3 + [(54, 48)] * 3
    assert set(checked) <= {orbit for _, orbit in shapes}
    for M, (pivots, kernel) in seen:
        field = M.ring
        assert M.rational_kernel()
        orbit = M.orbit_rows()
        free = sorted(set(range(M.ncols)) - set(pivots))
        for f, (coords, den) in zip(free, kernel):
            assert _annihilates_every_row(M, coords)
            entries = [(c, field.flat(coords[c])[0]) for c in pivots if c < f]
            assert annihilates(orbit, f, den, entries, field.scale, field)
            for i, (c, x) in enumerate(entries):
                changed = entries[:i] + [(c, x + 1)] + entries[i + 1:]
                assert not annihilates(orbit, f, den, changed, field.scale, field)


def test_orbit_rows_keep_the_rational_kernel_of_every_row():
    # seeded schemes over Q(zeta_5) and Q(zeta_7): unstable, partly stable
    # (part of an orbit, or a whole orbit beside other points), and with a
    # conjugate pair at different multiplicities, which is read twice: the
    # rational vectors that annihilate the orbit representatives' rows are
    # exactly those that annihilate every row
    for n, d in ((5, 5), (7, 6)):
        field = make_field("cyclotomic", n)
        rng = random.Random(f"orbit-rows-{n}")

        def point():
            coords = [field.from_coeffs([rng.randint(-3, 3) for _ in range(field.degree)]) for _ in range(2)]
            return ProjectivePoint(field, coords + [field.one])

        def conjugate(p, k):
            return ProjectivePoint(field, [field.from_coeffs(field.conjugate(x.coeffs, k)) for x in p.coeffs])

        k, l, *_ = field.conjugations
        p, q, r = point(), point(), point()
        schemes = [
            [(p, 1), (q, 1)],
            [(p, 1), (conjugate(p, k), 1), (q, 2)],
            [(p, 2)] + [(conjugate(p, j), 2) for j in field.conjugations] + [(r, 1)],
            [(p, 1), (conjugate(p, k), 2), (conjugate(p, l), 1)],
        ]
        for parts, kept in zip(schemes, ((0, 1), (0, 2), (0, n - 1), (0, 1))):
            X = FatPointScheme(field, parts)
            assert X.orbit_representatives() == kept
            M = conditions_matrix(X, d)
            assert not M.rational_kernel()
            basis = _rational_kernel(M, M.integral_rows())
            assert basis and _rational_kernel(M, M.orbit_rows()) == basis
            for v in basis:
                coords, _ = field.clear_denominators([field.scalar(x.as_fraction()) for x in v])
                assert _annihilates_every_row(M, coords)


def test_a_lifted_read_checks_every_row(monkeypatch):
    # part of an orbit of dual F5 beside its other points is unstable, so
    # its kernel is read lifted, and every candidate is checked on every
    # row, although its orbit rows are fewer; the stable sample's rational
    # read checks its orbit rows alone, and builds no other integral row
    checked = []
    annihilates = poly._annihilates

    def counted(rows, *args):
        checked.append(len(rows))
        return annihilates(rows, *args)

    monkeypatch.setattr(poly, "_annihilates", counted)
    f5 = make_field("cyclotomic", 5)
    Z = dual_fermat(5)
    X = FatPointScheme(f5, [(p, 1) for p in Z.points[:13]])
    M = conditions_matrix(X, 4)
    assert not M.rational_kernel() and len(M.orbit_rows()) < M.nrows
    assert nullspace_basis(M) == [tuple(v) for v in _gauss_jordan_kernel(M.rows, M.ncols, f5)]
    assert checked and set(checked) == {M.nrows}
    checked.clear()
    M = _dual_fermat_sample(5, 7)
    assert len(nullspace_basis(M)) == 1
    assert set(checked) == {len(M.orbit_rows())} and len(M.orbit_rows()) < M.nrows
    assert M._integral is None


def test_stable_kernels_read_at_map_0_match_the_lifted_read(monkeypatch):
    # each dual Fermat sample of F3-F6 at its range degrees, from the
    # conditions matrix, which knows its scheme Galois-stable and reads map
    # 0 alone, and from its integral rows, whose irrational entries have
    # their kernel read lifted from every map: the same ranks and RREF bases
    budgets = _count_calls(monkeypatch, poly, "_prime_budget")
    primes = _count_primes(monkeypatch)
    drops = []
    for n in (3, 4, 5, 6):
        for d in range(3, 2 * n - 2):
            M = _dual_fermat_sample(n, d)
            assert M.rational_kernel()
            found = []
            for N in (M, ExactMatrix.from_integral(M.ring, M.integral_rows(), M.ncols)):
                poly._eliminations.clear()
                poly._certificates.clear()
                primes[0] = budgets[0] = 0
                found.append((exact_rank(N), nullspace_basis(N)))
                maps = {key[3] for key in poly._eliminations}
                if N is M:
                    # a stable sample fills map-0 keys only, and computes no
                    # prime budget: no certificate goes past prime 3
                    assert maps == {0} and budgets[0] == 0
                    if found[0][0] < min(M.nrows, M.ncols):
                        # prime 0 for the rank, then primes 1 on of its
                        # certificate, which the basis reads again
                        drops.append((n, d, found[0][0], primes[0] - 1))
                elif drops and drops[-1][:2] == (n, d):
                    assert maps != {0}  # the lifted read eliminated every map
            assert found[0] == found[1], (n, d)
    assert drops == [(5, 7, 35, 2), (6, 8, 44, 3), (6, 9, 53, 3)]


def _reads_at(M, k):
    """For each map of certificate prime k, (plain, chart): M's (pivots,
    kernel) mod p from its own elimination (_back_substitute), and from its
    chart there (Chart.kernel), None where it has none; each elimination
    from an emptied store."""
    p, images, _ = M.ring.certificate_prime(k)
    reads = []
    for i, image in enumerate(images):
        poly._eliminations.clear()
        plain = poly._back_substitute(poly._eliminate(M, p, image, (M.ring, M.ncols, k, i), M.nrows), M.ncols, p)
        chart = M.chart(p, image)
        if chart is not None:
            chart = chart.kernel(poly._eliminate(chart, p, image, (M.ring, chart.key, k, i), M.nrows), p)
        reads.append((plain, chart))
    return reads


def test_chart_kernels_equal_the_plain_ones_on_the_fermat_range():
    # every sample of the F3-F6 range scans, at every map of primes 0 to
    # 2: where the sample's rows outnumber Z's, its chart's pivots and RREF
    # kernel residues are those of the plain elimination; the rule takes
    # the chart there and nowhere else, not at F5's d = 6, where the rows
    # tie at 15
    charted, compared = set(), 0
    for n in (3, 4, 5, 6):
        Z = dual_fermat(n)
        for d in unexpected.fermat_degrees(n):
            for P, _ in unexpected.detect_unexpected(Z, d).samples:
                M = conditions_matrix(FatPointScheme.of(Z, (P, d - 1)), d)
                for k in (0, 1, 2):
                    for plain, chart in _reads_at(M, k):
                        if chart is not None:
                            assert chart == plain, (n, d, P, k)
                            charted.add((n, d - 1, d))
                            compared += 1
    assert charted == {(5, 6, 7), (6, 6, 7), (6, 7, 8), (6, 8, 9)}
    # 3 samples at each positive, over phi(5) = 4 and phi(6) = 2 maps, and
    # F6's one sample at d = 7, a negative
    assert compared == 3 * 3 * 4 + 3 * 2 + 2 * 3 * 3 * 2
    # the example's sample at (3, 4) has 6 rows to Z's 9: no chart
    Z = example_quartic_config()
    M = conditions_matrix(FatPointScheme.of(Z, (GeneralPointStrategy().sample_point(QQ, 0), 3)), 4)
    assert all(chart is None for _, chart in _reads_at(M, 0))


def _charted_schemes():
    """Seeded schemes over Q and Q(zeta_5) whose fat point's rows outnumber
    the rest: centers with a zero coordinate, at infinity, affine, and over
    Q(zeta_5) irrational ones, whose schemes are not Galois-stable."""
    f5 = make_field("cyclotomic", 5)
    z = primitive_root(f5)
    rng = random.Random("charted-schemes")
    cases = []
    for field, centers in (
        (QQ, [(0, 7, 3), (5, -2, 0), (4, 9, 1), (0, 0, 1)]),
        (f5, [(0, 7, 3), (5, -2, 0), (1, z, 0), (z, 2, 1 + z**2), (0, 1 - z**3, 1)]),
    ):
        for t, center in enumerate(centers):
            r, j, d = rng.choice([(5, 4, 5), (3, 3, 3), (6, 5, 6), (4, 4, 4)])
            Z = random_config(r, 30, ("charted", repr(field), t)).lift(field)
            cases.append((FatPointScheme.of(Z, (center, j)), d))
    return cases


def test_chart_kernels_equal_the_plain_ones_at_any_center():
    # at every map of primes 0 to 2 the chart reads the plain (pivots,
    # kernel), and the certified ranks and bases, read lifted where the
    # scheme is not Galois-stable, are those of the same rows held as a
    # plain matrix, which has no chart, and of Gauss-Jordan
    lifted = 0
    for X, d in _charted_schemes():
        M = conditions_matrix(X, d)
        for k in (0, 1, 2):
            reads = _reads_at(M, k)
            assert all(chart == plain for plain, chart in reads)
        lifted += not M.rational_kernel()
        poly._eliminations.clear()
        poly._certificates.clear()
        plain = ExactMatrix.from_integral(M.ring, M.integral_rows(), M.ncols)
        p, images, _ = M.ring.certificate_prime(1)
        assert plain.chart(p, images[0]) is None
        found = (exact_rank(M), nullspace_basis(M))
        assert any(type(key[1]) is tuple for key in poly._eliminations)
        poly._eliminations.clear()
        poly._certificates.clear()
        assert found == (exact_rank(plain), nullspace_basis(plain))
        assert found[1] == [tuple(v) for v in _gauss_jordan_kernel(M.rows, M.ncols, M.ring)]
    assert lifted == 3


def test_a_chart_coordinate_that_maps_to_zero_takes_the_plain_elimination():
    # the center's chart coordinate vanishes at prime 0's first map: there
    # the matrix is eliminated plain, under the plain key, and in the chart
    # at every other map, and the ranks and bases are the plain matrix's
    p0 = QQ.certificate_prime(0)[0]
    f5 = make_field("cyclotomic", 5)
    z = primitive_root(f5)
    (w,) = f5.certificate_prime(0)[1][0](f5.clear_denominators([z])[0])
    for field, center in ((QQ, (2, 3, p0)), (f5, (3, z, z - w))):
        Z = random_config(4, 30, ("zero-chart", repr(field))).lift(field)
        M = conditions_matrix(FatPointScheme.of(Z, (center, 5)), 5)
        p, images, _ = field.certificate_prime(0)
        assert [M.chart(p, image) is None for image in images] == [True] + [False] * (len(images) - 1)
        for k in (0, 1, 2):
            reads = _reads_at(M, k)
            assert [chart is None for _, chart in reads] == [k == 0] + [False] * (len(reads) - 1)
            assert all(chart == plain for plain, chart in reads if chart is not None)
        poly._eliminations.clear()
        poly._certificates.clear()
        rank = exact_rank(M)
        assert list(poly._eliminations) == [(field, M.ncols, 0, 0)]
        found = (rank, nullspace_basis(M))
        assert all(type(key[1]) is tuple for key in poly._eliminations if key[2:] != (0, 0))
        plain = ExactMatrix.from_integral(field, M.integral_rows(), M.ncols)
        poly._eliminations.clear()
        poly._certificates.clear()
        assert found == (exact_rank(plain), nullspace_basis(plain))


def test_a_chart_certificate_over_q_resumes_its_full_rank_test(monkeypatch):
    # four points on the line x = z through the 4-fold center (1, 0, 1)
    # and one off it: at degree 5 the line divides every form of the
    # system, so the rank drops to 13, below 15.  The full-rank test stops
    # in the chart at its first dependent row, and the certificate's
    # elimination at prime 0 resumes it: each of the chart's 5 rows is
    # reduced there once, on its 21 - 10 = 11 columns
    p0 = QQ.certificate_prime(0)[0]
    reduced, forward = [], poly._forward

    def counted(residues, ncols, p, echelon, sizes, slack):
        before = len(sizes)
        forward(residues, ncols, p, echelon, sizes, slack)
        if p == p0:
            reduced.append((ncols, len(sizes) - before))

    monkeypatch.setattr(poly, "_forward", counted)
    X = FatPointScheme(QQ, [((1, k, 1), 1) for k in (1, 2, 3, 4)] + [((2, 5, 7), 1), ((1, 0, 1), 4)])
    M = conditions_matrix(X, 5)
    assert exact_rank(M) == 13
    assert [n for n, _ in reduced] == [11, 11] and sum(k for _, k in reduced) == 5
    assert [(key[1], key[2:]) for key in poly._eliminations] == [((21, X._triples[-1]), (0, 0))]
    assert len(nullspace_basis(M)) == 8


RANK_FIELDS = [QQ] + [make_field("cyclotomic", n) for n in (3, 4, 5, 6, 7, 8, 12)]


def _rank_corpus(field, rng):
    """The kernel corpus plus matrices of large random entries, as the
    conditions matrices of height-1000 points have."""

    def entry():
        return field.from_coeffs(
            [Fraction(rng.randint(-10**30, 10**30), rng.randint(1, 10**6)) for _ in range(field.degree)]
        )

    corpus = _kernel_corpus(field, rng, 30)
    for _ in range(10):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        corpus.append([[entry() for _ in range(n)] for _ in range(m)])
    return corpus


def _bareiss_rank(rows, field):
    return _echelon(poly._integral_rows(rows, field), len(rows[0]), field)[0]


@pytest.mark.parametrize("field", RANK_FIELDS, ids=repr)
def test_rank_matches_bareiss(field):
    corpus = _rank_corpus(field, random.Random(f"rank-{field!r}"))
    full = set()
    for rows in corpus:
        expected = _bareiss_rank(rows, field)
        full.add(expected == min(len(rows), len(rows[0])))
        assert exact_rank(ExactMatrix(field, rows)) == expected
        if field == QQ:
            fractions = [[x.as_fraction() for x in row] for row in rows]
            M = ExactMatrix.from_integral(QQ, poly._integral_rows(fractions, QQ), len(rows[0]))
            assert poly.rank_of_fraction_rows(M) == expected
    assert full == {True, False}


@pytest.mark.parametrize("field", RANK_FIELDS, ids=repr)
def test_certificate_matches_bareiss_reference(field):
    rng = random.Random(f"certificate-{field!r}")
    corpus = _kernel_corpus(field, rng, 30)

    def entry():
        return field.from_coeffs(
            [Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**3)) for _ in range(field.degree)]
        )

    # rank drops of larger entries, whose kernels need several primes
    for _ in range(4):
        m, n, k = rng.randint(2, 5), rng.randint(3, 6), rng.randint(1, 2)
        A = [[entry() for _ in range(k)] for _ in range(m)]
        B = [[entry() for _ in range(n)] for _ in range(k)]
        corpus.append([[sum((A[i][t] * B[t][j] for t in range(k)), field.zero) for j in range(n)] for i in range(m)])
    for rows in corpus:
        rank, kernel = _bareiss_reference(rows, field)
        M = ExactMatrix(field, rows)
        assert (exact_rank(M), nullspace_basis(M)) == (rank, kernel)


def test_rank_matches_sympy_over_q():
    sympy = pytest.importorskip("sympy")
    for rows in _rank_corpus(QQ, random.Random("rank-sympy")):
        expected = sympy.Matrix([[sympy.Rational(str(x.as_fraction())) for x in r] for r in rows]).rank()
        assert exact_rank(ExactMatrix(QQ, rows)) == expected
        fractions = [[x.as_fraction() for x in row] for row in rows]
        M = ExactMatrix.from_integral(QQ, poly._integral_rows(fractions, QQ), len(rows[0]))
        assert poly.rank_of_fraction_rows(M) == expected


def _rank_mod_reference(residues, ncols, p):
    """Plain Gaussian elimination mod p on lists, with row swaps: the rank."""
    rows = [list(r) for r in residues]
    rank = 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] * inv % p
            rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _forward_reference(residues, ncols, p):
    """Plain forward elimination mod p on lists: each row reduced against
    the echelon rows so far, in order, and kept, scaled to pivot 1, if it
    is nonzero.  The echelon as (pivot column, residues) pairs, and the
    number of echelon rows after each row."""
    echelon, sizes = [], []
    for row in residues:
        row = list(row)
        for c, e in echelon:
            f = row[c]
            row = [(x - f * y) % p for x, y in zip(row, e)]
        c = next((c for c, x in enumerate(row) if x), None)
        if c is not None:
            inv = pow(row[c], -1, p)
            echelon.append((c, [x * inv % p for x in row]))
        sizes.append(len(echelon))
    return echelon, sizes


def test_packed_rank_mod_p_matches_plain_elimination():
    # the one forward elimination, in the 8-byte slots of prime 0 and the
    # wide slots of a prime below 2^62, against plain elimination on lists
    rng = random.Random("packed-residues")
    verdicts = set()
    for field in (QQ, make_field("cyclotomic", 5)):
        for k in (0, 1):
            p = field.certificate_prime(k)[0]
            for _ in range(25):
                m, n = rng.randint(0, 60), rng.randint(0, 60)
                kind = rng.choice(("random", "large", "deficient"))
                if kind == "deficient":
                    # rank at most r < min(m, n) mod p
                    r = rng.randint(0, max(0, min(m, n) - 1))
                    A = [[rng.randrange(p) for _ in range(r)] for _ in range(m)]
                    B = [[rng.randrange(p) for _ in range(n)] for _ in range(r)]
                    rows = [[sum(a * b for a, b in zip(row, col)) % p for col in zip(*B)] or [0] * n for row in A]
                else:
                    # "large": residues near p - 1, the largest slot growth
                    low = p - 3 if kind == "large" else 0
                    rows = [[rng.randrange(low, p) for _ in range(n)] for _ in range(m)]
                expected, sizes = _forward_reference(rows, n, p)
                rank = _rank_mod_reference(rows, n, p)
                assert len(expected) == rank, (kind, m, n)
                echelon, packed_sizes = _packed_echelon(rows, n, p)
                assert echelon == expected, (kind, m, n)
                # every row is reduced, up to the one that completes n pivots
                done = m if rank < n else sizes.index(n) + 1 if n else 0
                assert packed_sizes == sizes[:done]
                # the full-rank test stops once full rank is out of reach
                full = min(m, n)
                stopped, _ = _packed_echelon(rows, n, p, m - full)
                assert stopped == expected[: len(stopped)]
                assert (len(stopped) == full) == (rank == full)
                verdicts.add(rank == full)
    assert verdicts == {True, False}


def test_rank_below_full_mod_p_is_decided_exactly(monkeypatch):
    calls = _count_calls(monkeypatch, poly, "_certify")
    p = QQ.certificate_prime(0)[0]
    # the residues of [[p, 0], [0, 1]] mod prime 0 have rank 1, the matrix rank 2
    assert poly.rank_of_fraction_rows(ExactMatrix.from_integral(QQ, [[p, 0], [0, 1]], 2)) == 2
    poly._certificates.clear()  # the same rows: the second rank is certified afresh
    assert exact_rank(ExactMatrix(QQ, [[p, 0], [0, 1]])) == 2
    assert calls[0] == 2
    for field in RANK_FIELDS[1:]:
        calls[0] = 0
        image = field.certificate_prime(0)[1][0]
        zeta = primitive_root(field)
        (omega,) = image(field.clear_denominators([zeta])[0])
        # zeta - omega has residue 0, but it is nonzero: zeta is not rational
        assert image(field.clear_denominators([zeta - omega])[0]) == [0]
        assert exact_rank(ExactMatrix(field, [[zeta - omega]])) == 1
        assert calls[0] == 1


def test_rank_drop_is_eliminated_once_per_prime_and_root(monkeypatch):
    # the 15 x 15 conditions matrix of the example plus a general triple
    # point drops rank; its full-rank test mod prime 0 is the first step of
    # its certificate, so each (prime, root) pair reduces each row once
    Z = example_quartic_config()
    P = GeneralPointStrategy().sample_point(QQ, 0)
    M = conditions_matrix(FatPointScheme.of(Z, (P, 3)), 4)
    assert (M.nrows, M.ncols) == (15, 15)
    forward = poly._forward
    reduced, primes = [0], set()
    certificate_prime = Field.certificate_prime

    def counted_forward(residues, ncols, p, echelon, sizes, slack):
        before = len(sizes)
        forward(residues, ncols, p, echelon, sizes, slack)
        reduced[0] += len(sizes) - before

    def counted_prime(field, k):
        primes.add((field, k))
        return certificate_prime(field, k)

    monkeypatch.setattr(poly, "_forward", counted_forward)
    monkeypatch.setattr(Field, "certificate_prime", counted_prime)
    assert exact_rank(M) == 14
    pairs = sum(len(certificate_prime(field, k)[1]) for field, k in primes)
    assert len(primes) > 1
    assert reduced[0] == 15 * pairs == 30
    # by each name, on rows built from the scheme or given integral, from
    # emptied stores, the certificate resumes the full-rank test all the same
    integral = ExactMatrix.from_integral(QQ, M.integral_rows(), 15)
    for rank in (
        lambda: exact_rank(M),
        lambda: poly.rank_of_fraction_rows(M),
        lambda: poly.rank_of_fraction_rows(integral),
    ):
        poly._eliminations.clear()
        poly._certificates.clear()
        reduced[0] = 0
        assert rank() == 14
        assert reduced[0] == 30
    # the store outlives the rank: the same rows again reduce no row
    reduced[0] = 0
    assert poly.rank_of_fraction_rows(integral) == 14
    assert reduced[0] == 0


def test_shared_certificates_resume_after_a_shared_prefix(monkeypatch):
    # ranks and kernels in turn, where each elimination resumes after the
    # rows it shares with the last one and each kernel reads its rank's
    # certificate, equal those taken alone, each from emptied stores
    certificates = _count_calls(monkeypatch, poly, "_certify")

    def alone(field, rows):
        found = []
        for read in (exact_rank, nullspace_basis):
            poly._eliminations.clear()
            poly._certificates.clear()
            found.append(read(ExactMatrix(field, rows)))
        return tuple(found)

    for field, height in ((QQ, 10**6), (make_field("cyclotomic", 5), 50)):
        rng = random.Random(f"shared-{field!r}")

        def row():
            return [field.from_coeffs([rng.randint(-height, height) for _ in range(field.degree)]) for _ in range(6)]

        base = [row() for _ in range(3)]
        # a rank drop at the last row, the same rows again, a strict
        # prefix, and rank drops sharing only the first three rows
        matrices = [base + [base[0]], base + [base[0]], base[:2]]
        for _ in range(3):
            extra = row()
            matrices.append(base + [extra, [a + b for a, b in zip(extra, base[1])], extra])
        separate = [alone(field, rows) for rows in matrices]
        certificates[0] = 0
        poly._eliminations.clear()
        poly._certificates.clear()
        shared = [(exact_rank(ExactMatrix(field, rows)), nullspace_basis(ExactMatrix(field, rows))) for rows in matrices]
        assert shared == separate
        assert [rank for rank, _ in separate] == [3, 3, 2, 4, 4, 4]
        # one certificate per distinct matrix: the repeated one is reused
        assert certificates[0] == len(matrices) - 1


@pytest.mark.parametrize("name", ["_eliminations", "_certificates"])
def test_racing_eliminations_evict_within_the_bound(name):
    # two threads store entries under new keys at once in one of the module
    # stores, eliminations by _eliminate and certificates by the _keep it
    # calls, each store past the bound, with thread switches as often as the
    # interpreter allows: no eviction fails, and the store ends full, within
    # its bound (without the lock, a thread evicts while the other iterates
    # the store, or both evict the same key)
    M = ExactMatrix(QQ, [[1, 2]])
    p, images, _ = QQ.certificate_prime(0)
    store, failures = getattr(poly, name), []
    certificate = poly._certify(M)
    barrier = threading.Barrier(2)

    def keep(key):
        if store is poly._eliminations:
            poly._eliminate(M, p, images[0], key, 0)
        else:
            poly._keep(store, key, certificate)

    def run(offset):
        barrier.wait()
        try:
            for key in range(offset, 40000, 2):
                keep(key)
        except Exception as error:
            failures.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(offset,)) for offset in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert len(store) == poly._STORE_BOUND


def test_stored_echelon_rows_are_held_packed_only():
    # each echelon row the store keeps after a dual Fermat range is its
    # packed int with its pivot's bit offset and column, and no residue list
    assert unexpected.fermat_unexpected_range(5) == [7]
    rows = [row for _, echelon, _ in poly._eliminations.values() for row in echelon]
    assert len(poly._eliminations) == poly._STORE_BOUND and rows
    assert all(type(row) is tuple and len(row) == 3 and all(type(x) is int for x in row) for row in rows)


def test_rank_invariances():
    rng = random.Random("rankinv")
    for _ in range(15):
        m, n = rng.randint(2, 5), rng.randint(2, 5)
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
        M = ExactMatrix(QQ, rows)
        r = exact_rank(M)
        assert exact_rank(ExactMatrix(QQ, [list(col) for col in zip(*rows)])) == r
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

        # the rows clear to term dicts of integral coordinates and back
        for row in rows:
            assert ring.from_integral(*ring.clear_denominators(row)) == list(row)
        cert = symbolic_rank_bound(ExactMatrix(ring, rows))
        # rank 1 at (a, b) = (0, 0), rank 2 at the next grid point; each
        # row has total degree 2, so the 5 x 4 square loses its corner (4, 3)
        assert cert == GenericRankCertificate(2, (0, 1), 4, 3, 19)
        assert spec_rank(*cert.witness) == cert.rank
        rng = random.Random("spez")
        attained = False
        for _ in range(20):
            r = spec_rank(rng.randint(-30, 30), rng.randint(-30, 30))
            assert r <= cert.rank
            attained = attained or r == cert.rank
        assert attained


def _full_grid_certificate(M):
    """Reference certificate: the exact rank at every point of the square
    grid that the degree bounds in a and in b alone require, its maximum
    and the first point attaining it."""
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


def _triangle_size(M):
    """|S|: the points of the square with a + b at most the sum over the
    rows of each row's largest total degree."""
    da = sum(max((e.deg_a() for e in row), default=0) for row in M.rows)
    db = sum(max((e.deg_b() for e in row), default=0) for row in M.rows)
    dt = sum(max((i + j for e in row for i, j in e.terms), default=0) for row in M.rows)
    return sum(1 for a0 in range(da + 1) for b0 in range(db + 1) if a0 + b0 <= dt)


def _reference_matrices():
    ring = ParamRing(QQ)
    a, b = ring.a, ring.b
    zeta6 = primitive_root(make_field("cyclotomic", 6))
    zeta5 = primitive_root(make_field("cyclotomic", 5))
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
        # phi = 4: at a = 0 the general point is a fifth point on the line
        # x = 0 through four points of Z, which imposes nothing new on
        # cubics, so the witness is (1, 0)
        "prop33-first a=zeta_5": (family("prop33-first", {"a": zeta5}), 1, 3),
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
    matrices = [M]
    if not isinstance(M, ExactMatrix):
        Z, j, d = M
        M = symbolic_conditions_matrix(FatPointScheme.of(Z), j, d)
        # the matrix as built, from integral rows, and rebuilt from its
        # ParamPoly rows, which ParamRing.clear_denominators clears; the
        # rows derived from integral ones keep no zero term
        assert all(all(e.terms.values()) for row in M.rows for e in row)
        matrices = [M, ExactMatrix(M.ring, M.rows)]
    # the triangle gives the square's rank and witness, at fewer points
    reference = _full_grid_certificate(M)
    expected = dataclasses.replace(reference, grid_points=_triangle_size(M))
    for N in matrices:
        assert symbolic_rank_bound(N) == expected


@pytest.mark.parametrize(
    "label", [label for label, M in _reference_matrices().items() if not isinstance(M, ExactMatrix)]
)
def test_the_whole_matrix_ranks_z_and_the_general_point_on_i_z(label):
    # [Z's rows; P's rows] in ParamPolys, P's rows the partials of order
    # j - 1 of each monomial at [a, b, 1] by Form arithmetic, apart from the
    # templates: the sweep ranks its constant rows at each grid point, and
    # its generic rank is rank C plus that of the general point's conditions
    # on I(Z)_d, attained at the same witness, as C's row space is exactly
    # the annihilator of the kernel the conditions are projected onto
    Z, j, d = _reference_matrices()[label]
    X = FatPointScheme.of(Z)
    ring = ParamRing(X.field)
    C = conditions_matrix(X, d)
    P = (ring.a, ring.b, ring.one)
    general = []
    for alpha in monomial_basis(j - 1):
        row = []
        for e in monomial_basis(d):
            f = _monomial_form(d, e, ring=ring)
            for var, times in zip("xyz", alpha):
                for _ in range(times):
                    f = partial_derivative(f, var)
            row.append(evaluate(f, P))
        general.append(row)
    whole = symbolic_rank_bound(ExactMatrix(ring, [list(row) for row in C.rows] + general))
    projected = symbolic_rank_bound(symbolic_conditions_matrix(X, j, d))
    assert (whole.rank, whole.witness) == (exact_rank(C) + projected.rank, projected.witness)


@pytest.mark.parametrize(
    "da, db, dt",
    # the square (dt >= da + db), a total degree below both, unequal bounds
    [(3, 3, 6), (2, 4, 9), (4, 5, 2), (2, 5, 4), (5, 2, 4), (0, 3, 1), (6, 6, 6)],
)
def test_the_degree_triangle_is_unisolvent(da, db, dt):
    # the lemma under the grid: a polynomial with degrees at most da in a,
    # db in b and dt in total is fixed by its values on the points of S,
    # which are as many as its monomials
    exponents = [(i, j) for i in range(da + 1) for j in range(db + 1) if i + j <= dt]
    rows = [[a0**i * b0**j for i, j in exponents] for a0, b0 in exponents]
    assert exact_rank(ExactMatrix(QQ, rows)) == len(exponents)


def test_the_grid_reaches_the_total_degree():
    # prod_{k=0}^{D} (a + b - k) vanishes on a + b <= D but not identically:
    # its total degree D + 1 makes the grid reach a + b = D + 1, first at
    # (0, D + 1), so a total-degree bound one too small would give rank 0.
    # The factor 1 + zeta makes the entry irrational over Q(zeta_3), ranked
    # in the regular representation
    f3 = make_field("cyclotomic", 3)
    for field, unit in ((QQ, 1), (f3, 1), (f3, 1 + primitive_root(f3))):
        ring = ParamRing(field)
        for D in (0, 1, 4):
            entry = ring.coerce(unit)
            for k in range(D + 1):
                entry = entry * (ring.a + ring.b - k)
            cert = symbolic_rank_bound(ExactMatrix(ring, [[entry]]))
            size = (D + 2) * (D + 3) // 2
            assert cert == GenericRankCertificate(1, (0, D + 1), D + 1, D + 1, size)


@pytest.mark.parametrize("label", ["prop33-first a=zeta_6", "prop33-first a=zeta_5"])
def test_regular_representation_ranks_are_the_exact_ranks(monkeypatch, label):
    # at the points of a scheme that is not Galois-stable, P N has
    # irrational entries: each grid point's Bareiss rank, of the regular
    # representation, is phi times exact_rank of P N evaluated there, at
    # every point the sweep evaluates, in the grid's lexicographic order
    Z, j, d = _reference_matrices()[label]
    M = symbolic_conditions_matrix(FatPointScheme.of(Z), j, d)
    field = M.ring.field
    assert not FatPointScheme.of(Z).galois_stable()
    echelon, ranks = poly._echelon_int, []

    def recorded(rows, ncols):
        ranks.append(echelon(rows, ncols)[0])
        return ranks[-1], None

    monkeypatch.setattr(poly, "_echelon_int", recorded)
    cert = symbolic_rank_bound(M)
    da, db = cert.degree_bound_a, cert.degree_bound_b
    dt = sum(max((i + j for e in row for i, j in e.terms), default=0) for row in M.rows)
    grid = [(a0, b0) for a0 in range(da + 1) for b0 in range(min(db, dt - a0) + 1)]
    assert len(grid) == cert.grid_points
    grid = grid[: grid.index(cert.witness) + 1]
    assert len(ranks) == len(grid) > 1 and len(set(ranks)) > 1
    for (a0, b0), r in zip(grid, ranks):
        spec = [[e.evaluate(a0, b0) for e in row] for row in M.rows]
        assert r == field.degree * exact_rank(ExactMatrix(field, spec))


def test_regular_representation_rank_is_checked_divisible(monkeypatch):
    # a Bareiss rank of the regular representation that phi does not divide
    # is no rank over the field: over Q(zeta_3), where phi = 2, a rank one
    # too large raises
    f3 = make_field("cyclotomic", 3)
    ring = ParamRing(f3)
    M = ExactMatrix(ring, [[ring.a * primitive_root(f3), ring.b]])
    assert symbolic_rank_bound(M).rank == 1
    echelon = poly._echelon_int
    monkeypatch.setattr(poly, "_echelon_int", lambda rows, ncols: (echelon(rows, ncols)[0] + 1, None))
    with pytest.raises(ArithmeticError):
        symbolic_rank_bound(M)


def _shortcut_corpus():
    """(Z, j, d) instances for the certified generic dimension: the
    reference configurations, dual F3, the example and two projective
    images of it, and seeded random sets of 5 to 9 points, each at (d - 1,
    d) and at a (j, j + 1) of its splitting trace."""
    instances = [M for M in _reference_matrices().values() if not isinstance(M, ExactMatrix)]
    F3 = dual_fermat(3)
    instances += [(F3, d - 1, d) for d in (2, 3, 4)]
    example = example_quartic_config()
    instances.append((example, 3, 4))
    for T in ([[0, 1, 1], [1, 0, -1], [2, 1, 0]], [[3, 0, 1], [1, 2, 0], [0, -1, 1]]):
        instances.append((apply_transform(T, example), 3, 4))
    for k in range(20):
        n = 5 + k % 5
        Z = random_config(n, 3 if k % 2 else 30, ("shortcut", k))
        d = 3 + k % 3
        j = 1 + k % (n - 1)
        instances += [(Z, d - 1, d), (Z, j, j + 1)]
    return instances


def test_certified_generic_dim_matches_the_grid_on_corpora(monkeypatch):
    # certified generic_dim runs the grid only where the samples stay above
    # the condition-count floor; everywhere else its value must still be the
    # grid's, dim I(Z)_d less the generic rank of the general point's
    # conditions on I(Z)_d, which this cross-checks
    certified = GeneralPointStrategy(mode="certified")
    grid = _count_calls(monkeypatch, unexpected, "symbolic_rank_bound")
    instances = _shortcut_corpus()
    for Z, j, d in instances:
        value = generic_dim(Z, j, d, certified)
        M = symbolic_conditions_matrix(FatPointScheme.of(Z), j, d)
        assert value == M.ncols - symbolic_rank_bound(M).rank
    # only the six instances of the example's quartic reach the grid: the
    # example twice, the excluded pair and three projective images
    assert (len(instances), grid[0]) == (62, 6)


def test_grid_sweep_stops_at_the_rank_ceiling(monkeypatch):
    # one Bareiss rank per grid point, over Q(zeta_n) as over Q, and no _rank
    bareiss = _count_calls(monkeypatch, poly, "_echelon_int")
    ranks = _count_calls(monkeypatch, poly, "_rank")
    certificates = _count_calls(monkeypatch, poly, "_certify")
    # F3 reaches its ceiling of 6 at the witness (1, 2), the 14th of 85
    # points; the example stays at rank 5, below its ceiling of 6, to the end
    # of its 79.  The one certificate is for the kernel of Z's conditions
    # matrix, before the sweep
    for Z, rank, witness, points, evaluated, certified in (
        (dual_fermat(3), 6, (1, 2), 85, (14, 0), 1),
        (example_quartic_config(), 5, (1, 1), 79, (79, 0), 1),
    ):
        bareiss[0] = ranks[0] = certificates[0] = 0
        cert = symbolic_rank_bound(symbolic_conditions_matrix(FatPointScheme.of(Z), 3, 4))
        assert (cert.rank, cert.witness, cert.grid_points) == (rank, witness, points)
        assert (bareiss[0], ranks[0], certificates[0]) == (*evaluated, certified)


def test_cyclotomic_grid_inverts_nothing_and_keeps_the_enclosing_store(monkeypatch):
    # the kernel of Z's conditions matrix is read from the scheme-held
    # matrix's certificate: at map 0 alone for a Galois-stable scheme, such
    # as dual F3, at both maps where a = zeta_6 makes the scheme unstable, and
    # a later basis of that matrix finds it kept.  The grid over Q(zeta_n)
    # ranks its points by Bareiss in ints, which takes no integral inverse
    # and runs no certificate, so the module stores stay empty
    inverses = _count_calls(monkeypatch, Field, "integral_inverse")
    certificates = _count_calls(monkeypatch, poly, "_certify")
    zeta6 = primitive_root(make_field("cyclotomic", 6))
    for Z, expected, maps in (
        (dual_fermat(3), (6, (1, 2), 10, 10, 85), [(15, 1, 0)]),
        (family("prop33-first", {"a": zeta6}), (6, (2, 0), 11, 11, 89), [(15, 1, 0), (15, 1, 1)]),
    ):
        poly._eliminations.clear()
        poly._certificates.clear()
        X = FatPointScheme.of(Z)
        M = symbolic_conditions_matrix(X, 3, 4)
        assert [key[:2] for key in poly._certificates] == [(M.ring.field, 15)]
        assert sorted(key[1:] for key in poly._eliminations) == maps
        certificates[0] = 0
        nullspace_basis(conditions_matrix(X, 4))
        assert certificates[0] == 0
        poly._eliminations.clear()
        poly._certificates.clear()
        inverses[0] = 0
        assert symbolic_rank_bound(M) == GenericRankCertificate(*expected)
        assert (poly._certificates, poly._eliminations) == ({}, {})
        assert inverses[0] == 0


def test_cyclotomic_bareiss_division_is_checked(monkeypatch):
    f3 = make_field("cyclotomic", 3)
    # rank 2, the third row the sum of the others; the reference elimination
    rows = poly._integral_rows([[2, 1, 1], [1, 1, 0], [3, 2, 1]], f3)
    assert _echelon_cyc([list(r) for r in rows], 3, f3) == (2, [0, 1])
    mul = f3.mul
    calls = [0]

    def corrupted(u, v):
        calls[0] += 1
        w = mul(u, v)
        # the first sweep takes 11 products, none with the zero in the
        # second row, and the norm check of the first pivot's inverse the
        # 12th; the 13th is the first of the second sweep, whose difference
        # is then divided by the first pivot, 2
        return (w[0] + 1, *w[1:]) if calls[0] == 13 else w

    # the field's one product kernel, shared with Scalar multiplication
    monkeypatch.setattr(f3, "mul", corrupted)
    with pytest.raises(ArithmeticError):
        _echelon_cyc(rows, 3, f3)


def test_cyclotomic_bareiss_skips_zero_products(monkeypatch):
    # the F5 d=7 rank drop over Z[zeta_5]: a product with an all-zero
    # operand is skipped, and the rank and pivots stay those of the kernel
    M = _dual_fermat_sample(5, 7)
    rows = poly._integral_rows(M.rows, M.ring)
    poly._eliminations.clear()
    pivots, _ = poly._certify(ExactMatrix.from_integral(M.ring, rows, 36))
    zero_operands = [0]
    mul = M.ring.mul

    def counted(u, v):
        zero_operands[0] += not any(u) or not any(v)
        return mul(u, v)

    monkeypatch.setattr(M.ring, "mul", counted)
    assert _echelon_cyc(rows, 36, M.ring) == (35, pivots)
    assert zero_operands[0] == 0


def test_integer_bareiss_division_is_checked():
    class OffByOne(int):
        # an entry whose products come out one too large
        def __mul__(self, other):
            return int(self) * int(other) + 1

        __rmul__ = __mul__

    rows = [[2, 1, 1], [1, 3, 1], [1, 1, 4]]
    assert poly._echelon_int([list(r) for r in rows], 3) == (3, [0, 1, 2])
    rows[2][2] = OffByOne(4)
    # the first sweep turns 2 * 4 - 1 into 8 instead of 7; the second sweep's
    # last column is then 5 * 8 - 1 * 1 = 39, not divisible by the pivot 2
    with pytest.raises(ArithmeticError):
        poly._echelon_int(rows, 3)


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
