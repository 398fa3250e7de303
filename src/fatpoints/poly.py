"""Dense homogeneous forms in x, y, z and exact matrix kernels.

Monomials of each degree d live in a fixed graded-lexicographic order with
x > y > z; coefficient vectors (length C(d+2,2)) in that order are part of
the external contract, so reports are reproducible bit for bit.

Matrix elimination is fraction-free (Bareiss): rows are first scaled to
integer (or cyclotomic-integer) entries, and the one-step Bareiss update
keeps every intermediate entry equal to a minor of the scaled matrix, which
controls coefficient blowup.  Nullspace bases come from the reduced row
echelon form, so they are canonical regardless of pivot choices.

Symbolic mode works over a dense bivariate polynomial ring Q(zeta_n)[a, b];
generic ranks of parameter matrices are certified by evaluation on an
integer grid larger than the degree bound of the relevant minors.  The
constant rows C are eliminated once: only the parametric rows P, projected
onto a kernel basis N of C, are evaluated, since rank M = rank C + rank(P N)
at every grid point.  P N has integral coefficients after one scaling per
row, so every grid rank is one integer elimination, and the sweep stops as
soon as rank(P N) reaches min(#P, dim N).  The certificate's grid_points is
the size of the grid the degree bound requires, not the number of points
evaluated.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm

from .field import QQ, Field, FieldMismatchError, Scalar
from .geom import mat3_det


@lru_cache(maxsize=None)
def monomial_basis(d: int) -> tuple[tuple[int, int, int], ...]:
    """Exponent triples of total degree d, graded-lex with x > y > z."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    out = []
    for i in range(d, -1, -1):
        for j in range(d - i, -1, -1):
            out.append((i, j, d - i - j))
    return tuple(out)


@lru_cache(maxsize=None)
def _monomial_index(d: int) -> dict:
    return {e: i for i, e in enumerate(monomial_basis(d))}


# ---------------------------------------------------------------------------
# parameter polynomials (symbolic mode)
# ---------------------------------------------------------------------------


class ParamRing:
    """The polynomial ring K[a, b] over a scalar field, dense bivariate."""

    __slots__ = ("field", "zero", "one", "a", "b")

    def __init__(self, field: Field):
        self.field = field
        self.zero = ParamPoly(field, {})
        self.one = ParamPoly(field, {(0, 0): field.one})
        self.a = ParamPoly(field, {(1, 0): field.one})
        self.b = ParamPoly(field, {(0, 1): field.one})

    def coerce(self, value) -> "ParamPoly":
        if isinstance(value, ParamPoly):
            if value.field != self.field:
                raise FieldMismatchError("parameter polynomial over a different field")
            return value
        if isinstance(value, Scalar) or isinstance(value, (int, Fraction)):
            s = self.field.scalar(value)
            return ParamPoly(self.field, {(0, 0): s} if s else {})
        raise TypeError(f"cannot coerce {value!r} into {self!r}")

    def __eq__(self, other):
        return isinstance(other, ParamRing) and self.field == other.field

    def __hash__(self):
        return hash(("ParamRing", self.field))

    def __repr__(self):
        return f"{self.field!r}[a,b]"


class ParamPoly:
    """Polynomial in the parameters a, b with scalar coefficients."""

    __slots__ = ("field", "terms")

    def __init__(self, field: Field, terms: dict):
        self.field = field
        self.terms = terms  # {(deg_a, deg_b): nonzero Scalar}

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def deg_a(self) -> int:
        return max((e[0] for e in self.terms), default=0)

    def deg_b(self) -> int:
        return max((e[1] for e in self.terms), default=0)

    def _coerce(self, other):
        if isinstance(other, ParamPoly):
            if other.field != self.field:
                raise FieldMismatchError("parameter polynomials over different fields")
            return other
        if isinstance(other, (Scalar, int, Fraction)):
            s = self.field.scalar(other)
            return ParamPoly(self.field, {(0, 0): s} if s else {})
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        terms = dict(self.terms)
        for e, c in o.terms.items():
            s = terms.get(e)
            s = c if s is None else s + c
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
        return ParamPoly(self.field, terms)

    __radd__ = __add__

    def __neg__(self):
        return ParamPoly(self.field, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        terms: dict = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in o.terms.items():
                e = (i1 + i2, j1 + j2)
                p = c1 * c2
                s = terms.get(e)
                s = p if s is None else s + p
                if s:
                    terms[e] = s
                else:
                    terms.pop(e, None)
        return ParamPoly(self.field, terms)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if not isinstance(e, int) or e < 0:
            return NotImplemented
        result = ParamPoly(self.field, {(0, 0): self.field.one})
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.terms == o.terms

    def __hash__(self):
        return hash((self.field, frozenset(self.terms.items())))

    def evaluate(self, a0, b0) -> Scalar:
        """Value at scalar parameters (a0, b0)."""
        f = self.field
        a0 = f.scalar(a0)
        b0 = f.scalar(b0)
        da, db = self.deg_a(), self.deg_b()
        pa = [f.one]
        for _ in range(da):
            pa.append(pa[-1] * a0)
        pb = [f.one]
        for _ in range(db):
            pb.append(pb[-1] * b0)
        total = f.zero
        for (i, j), c in self.terms.items():
            total = total + c * pa[i] * pb[j]
        return total

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for (i, j) in sorted(self.terms):
            c = self.terms[(i, j)]
            factors = []
            if i:
                factors.append("a" if i == 1 else f"a^{i}")
            if j:
                factors.append("b" if j == 1 else f"b^{j}")
            mono = "*".join(factors)
            parts.append(f"({c})" + (f"*{mono}" if mono else ""))
        return " + ".join(parts)

    __repr__ = __str__


# ---------------------------------------------------------------------------
# homogeneous forms
# ---------------------------------------------------------------------------

_VAR_INDEX = {"x": 0, "y": 1, "z": 2, 0: 0, 1: 1, 2: 2}


class Form:
    """Homogeneous polynomial of fixed degree over a Field or ParamRing."""

    __slots__ = ("ring", "degree", "coeffs")

    def __init__(self, ring, degree: int, coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) != comb(degree + 2, 2):
            raise ValueError(
                f"degree {degree} form needs {comb(degree + 2, 2)} coefficients, "
                f"got {len(coeffs)}"
            )
        self.ring = ring
        self.degree = degree
        self.coeffs = coeffs

    @classmethod
    def from_coeffs(cls, ring, degree: int, coeffs) -> "Form":
        return cls(ring, degree, [ring.coerce(c) for c in coeffs])

    @classmethod
    def zero(cls, ring, degree: int) -> "Form":
        z = ring.zero
        return cls(ring, degree, (z,) * comb(degree + 2, 2))

    @classmethod
    def linear(cls, ring, triple) -> "Form":
        return cls.from_coeffs(ring, 1, triple)

    @classmethod
    def variable(cls, ring, var) -> "Form":
        i = _VAR_INDEX[var]
        coeffs = [ring.zero] * 3
        coeffs[i] = ring.one
        return cls(ring, 1, coeffs)

    def is_zero(self) -> bool:
        return all(not c for c in self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, Form)
            and self.ring == other.ring
            and self.degree == other.degree
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.degree, self.coeffs))

    def __add__(self, other):
        if not isinstance(other, Form) or other.degree != self.degree:
            return NotImplemented
        return Form(
            self.ring,
            self.degree,
            tuple(a + b for a, b in zip(self.coeffs, other.coeffs)),
        )

    def __sub__(self, other):
        if not isinstance(other, Form) or other.degree != self.degree:
            return NotImplemented
        return Form(
            self.ring,
            self.degree,
            tuple(a - b for a, b in zip(self.coeffs, other.coeffs)),
        )

    def __neg__(self):
        return Form(self.ring, self.degree, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, Form):
            return _form_product(self, other)
        c = self.ring.coerce(other)
        return Form(self.ring, self.degree, tuple(a * c for a in self.coeffs))

    def __rmul__(self, other):
        c = self.ring.coerce(other)
        return Form(self.ring, self.degree, tuple(c * a for a in self.coeffs))

    def lift(self, ring) -> "Form":
        """Reinterpret the coefficients in a larger coefficient ring."""
        return Form(ring, self.degree, tuple(ring.coerce(c) for c in self.coeffs))

    def coefficient(self, exponents) -> object:
        return self.coeffs[_monomial_index(self.degree)[tuple(exponents)]]

    def __str__(self):
        names = ("x", "y", "z")
        parts = []
        for e, c in zip(monomial_basis(self.degree), self.coeffs):
            if not c:
                continue
            mono = "*".join(n if k == 1 else f"{n}^{k}" for n, k in zip(names, e) if k)
            cs = str(c)
            if not mono:
                parts.append(cs)
            elif cs == "1":
                parts.append(mono)
            elif cs == "-1":
                parts.append("-" + mono)
            else:
                parts.append(f"({cs})*{mono}")
        return " + ".join(parts) if parts else "0"

    __repr__ = __str__


def _form_product(f: Form, g: Form) -> Form:
    if f.ring != g.ring:
        raise FieldMismatchError("forms over different coefficient rings")
    d = f.degree + g.degree
    idx = _monomial_index(d)
    zero = f.ring.zero
    out = [zero] * comb(d + 2, 2)
    fb = monomial_basis(f.degree)
    gb = monomial_basis(g.degree)
    for i, ci in enumerate(f.coeffs):
        if not ci:
            continue
        ei = fb[i]
        for j, cj in enumerate(g.coeffs):
            if not cj:
                continue
            ej = gb[j]
            k = idx[(ei[0] + ej[0], ei[1] + ej[1], ei[2] + ej[2])]
            out[k] = out[k] + ci * cj
    return Form(f.ring, d, out)


def product(forms) -> Form:
    """Product of a sequence of forms; the empty product is the constant 1."""
    forms = list(forms)
    if not forms:
        raise ValueError("product of no forms is ambiguous without a ring")
    result = forms[0]
    for f in forms[1:]:
        result = _form_product(result, f)
    return result


def partial_derivative(f: Form, var) -> Form:
    """Formal partial derivative; degree-0 input yields the zero form."""
    v = _VAR_INDEX[var]
    if f.degree == 0:
        return Form.zero(f.ring, 0)
    d = f.degree
    idx = _monomial_index(d - 1)
    zero = f.ring.zero
    out = [zero] * comb(d + 1, 2)
    for e, c in zip(monomial_basis(d), f.coeffs):
        if not c or not e[v]:
            continue
        e2 = list(e)
        k = e2[v]
        e2[v] = k - 1
        out[idx[tuple(e2)]] = c * k
    return Form(f.ring, d - 1, out)


def evaluate(f: Form, point) -> object:
    """Value of the form at a coordinate triple (ring elements)."""
    coords = getattr(point, "coeffs", point)
    p = [f.ring.coerce(c) for c in coords]
    d = f.degree
    pows = []
    for c in p:
        row = [f.ring.one]
        for _ in range(d):
            row.append(row[-1] * c)
        pows.append(row)
    total = f.ring.zero
    for e, c in zip(monomial_basis(d), f.coeffs):
        if not c:
            continue
        total = total + c * pows[0][e[0]] * pows[1][e[1]] * pows[2][e[2]]
    return total


# ---------------------------------------------------------------------------
# exact matrices
# ---------------------------------------------------------------------------


class ExactMatrix:
    """Immutable rectangular matrix over a Field (or ParamRing, symbolic)."""

    __slots__ = ("ring", "nrows", "ncols", "rows")

    def __init__(self, ring, rows):
        rows = tuple(tuple(ring.coerce(e) for e in row) for row in rows)
        if rows:
            w = len(rows[0])
            if any(len(r) != w for r in rows):
                raise ValueError("ragged matrix")
        else:
            w = 0
        self.ring = ring
        self.nrows = len(rows)
        self.ncols = w
        self.rows = rows

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(
            self.ring, [[self.rows[r][c] for r in range(self.nrows)] for c in range(self.ncols)]
        )

    def matvec(self, vec):
        vec = [self.ring.coerce(v) for v in vec]
        out = []
        for row in self.rows:
            s = self.ring.zero
            for a, v in zip(row, vec):
                s = s + a * v
            out.append(s)
        return out

    def __repr__(self):
        return f"ExactMatrix({self.nrows}x{self.ncols} over {self.ring!r})"


def _integral_rows(rows, field: Field) -> list:
    """Each row times the lcm of its denominators: int rows over Q, int-tuple
    rows over Q(zeta_n).  Entries are Scalars of field, or over Q also ints
    and Fractions; a row is all Scalars or none.

    The one place denominators are cleared; scaling a row by a nonzero
    constant keeps the rank, the row space and the nullspace.
    """
    out = []
    if field.degree == 1:
        for row in rows:
            if row and isinstance(row[0], Scalar):
                row = [x.coeffs[0] for x in row]
            den = lcm(*[x.denominator for x in row])
            out.append([x.numerator * (den // x.denominator) for x in row])
        return out
    for row in rows:
        den = lcm(*[c.denominator for s in row for c in s.coeffs])
        out.append([tuple(c.numerator * (den // c.denominator) for c in s.coeffs) for s in row])
    return out


def _echelon_int(rows, ncols):
    """Fraction-free forward elimination over Z; returns (rank, pivot cols)."""
    m = len(rows)
    prev = 1
    pr = 0
    pivots = []
    for c in range(ncols):
        piv_r = None
        for r in range(pr, m):
            if rows[r][c]:
                piv_r = r
                break
        if piv_r is None:
            continue
        rows[pr], rows[piv_r] = rows[piv_r], rows[pr]
        piv = rows[pr][c]
        rowp = rows[pr]
        for r in range(pr + 1, m):
            rowr = rows[r]
            rc = rowr[c]
            rows[r] = [(piv * rowr[cc] - rc * rowp[cc]) // prev for cc in range(ncols)]
        prev = piv
        pivots.append(c)
        pr += 1
        if pr == m:
            break
    return len(pivots), pivots


def _cyc_ops(field: Field):
    deg = field.degree
    red = field._red

    def mul(u, v):
        w = [0] * (2 * deg - 1)
        for i in range(deg):
            ui = u[i]
            if ui:
                for j in range(deg):
                    vj = v[j]
                    if vj:
                        w[i + j] += ui * vj
        out = w[:deg]
        for k in range(deg, 2 * deg - 1):
            ck = w[k]
            if ck:
                row = red[k - deg]
                for i in range(deg):
                    ri = row[i]
                    if ri:
                        out[i] += ck * ri
        return tuple(out)

    return mul


def _echelon_cyc(rows, ncols, field: Field):
    """Fraction-free forward elimination over Z[zeta_n]."""
    deg = field.degree
    zero = (0,) * deg
    mul = _cyc_ops(field)
    m = len(rows)
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
        rows[pr], rows[piv_r] = rows[piv_r], rows[pr]
        piv = rows[pr][c]
        rowp = rows[pr]
        for r in range(pr + 1, m):
            rowr = rows[r]
            rc = rowr[c]
            new = []
            for cc in range(ncols):
                a = mul(piv, rowr[cc])
                bb = mul(rc, rowp[cc])
                v = tuple(x - y for x, y in zip(a, bb))
                if prev_div is not None and any(v):
                    num, den = prev_div
                    out = []
                    for x in mul(v, num):
                        q, rem = divmod(x, den)
                        if rem:
                            raise ArithmeticError("inexact division in Bareiss elimination")
                        out.append(q)
                    v = tuple(out)
                new.append(v if any(v) else zero)
            rows[r] = new
        # 1/piv as an integer tuple over a common denominator, for the next sweep
        inv = Scalar(field, tuple(Fraction(x) for x in piv)).inverse()
        den = 1
        for x in inv.coeffs:
            den = lcm(den, x.denominator)
        prev_div = (tuple(int(x * den) for x in inv.coeffs), den)
        pivots.append(c)
        pr += 1
        if pr == m:
            break
    return len(pivots), pivots


def _echelon(rows, ncols: int, field: Field):
    """Forward elimination of _integral_rows output in place: (rank, pivot cols)."""
    if field.degree == 1:
        return _echelon_int(rows, ncols)
    return _echelon_cyc(rows, ncols, field)


def exact_rank(M: ExactMatrix) -> int:
    """Rank over the field, by fraction-free elimination with exact pivoting."""
    if not isinstance(M.ring, Field):
        raise TypeError("exact_rank needs a matrix over a field; see symbolic_rank_bound")
    rank, _ = _echelon(_integral_rows(M.rows, M.ring), M.ncols, M.ring)
    return rank


def rank_of_fraction_rows(rows, ncols: int) -> int:
    """Rank of plain int or Fraction rows over Q; the wrapper-free hot path."""
    rank, _ = _echelon(_integral_rows(rows, QQ), ncols, QQ)
    return rank


def _rref_from_echelon(field, rows, pivots, ncols):
    """Reduce echelon integer rows to RREF over the field."""
    rank = len(pivots)
    if field.degree == 1:
        frows = [[field.scalar(Fraction(x)) for x in rows[i]] for i in range(rank)]
    else:
        frows = [
            [Scalar(field, tuple(Fraction(c) for c in x)) for x in rows[i]]
            for i in range(rank)
        ]
    for i in range(rank - 1, -1, -1):
        p = pivots[i]
        inv = frows[i][p].inverse()
        frows[i] = [e * inv for e in frows[i]]
        for i2 in range(i):
            f = frows[i2][p]
            if f:
                frows[i2] = [e2 - f * e for e2, e in zip(frows[i2], frows[i])]
    return frows


def nullspace_basis(M: ExactMatrix) -> list[tuple[Scalar, ...]]:
    """Canonical basis of {v : Mv = 0}: the RREF standard basis.

    Vectors carry one coordinate per column of M, in column order; the size
    of the basis is ncols - rank.
    """
    if not isinstance(M.ring, Field):
        raise TypeError("nullspace_basis needs a matrix over a field")
    field = M.ring
    rows = _integral_rows(M.rows, field)
    _, pivots = _echelon(rows, M.ncols, field)
    rref = _rref_from_echelon(field, rows, pivots, M.ncols)
    pivset = set(pivots)
    basis = []
    for f in range(M.ncols):
        if f in pivset:
            continue
        v = [field.zero] * M.ncols
        v[f] = field.one
        for i, p in enumerate(pivots):
            v[p] = -rref[i][f]
        basis.append(tuple(v))
    return basis


def determinant(M: ExactMatrix):
    """Determinant of a square matrix of size at most 3, over any ring."""
    if M.nrows != M.ncols:
        raise ValueError("determinant of a non-square matrix")
    n = M.nrows
    r = M.rows
    if n == 0:
        return M.ring.one
    if n == 1:
        return r[0][0]
    if n == 2:
        return r[0][0] * r[1][1] - r[0][1] * r[1][0]
    if n == 3:
        return mat3_det(r)
    raise NotImplementedError("determinants above 3x3 are not needed here")


@dataclass(frozen=True)
class GenericRankCertificate:
    """Generic rank of a parameter matrix with a grid-evaluation certificate.

    The witness attains the rank (lower bound); since every minor of the
    matrix has degree at most degree_bound_a in a and degree_bound_b in b,
    vanishing of all (rank+1)-minors on the full grid forces them to vanish
    identically (upper bound).  grid_points is the size of that grid,
    (degree_bound_a + 1) * (degree_bound_b + 1), as the degree bound
    requires it; the sweep stops early once no larger minor exists, so
    fewer points may be evaluated.
    """

    rank: int
    witness: tuple
    degree_bound_a: int
    degree_bound_b: int
    grid_points: int


def symbolic_rank_bound(M: ExactMatrix) -> GenericRankCertificate:
    """Certified generic rank of a matrix with ParamPoly entries.

    The constant rows C (no entry involves a or b) are eliminated once: with
    N a kernel basis of C and P the other rows, rank M(a, b) = rank C +
    rank(P(a, b) N) at every point, because the row space of C is exactly
    the set of vectors that N annihilates.  So only P N is evaluated on the
    grid; its rows are scaled once to integral term coefficients, and each
    grid point is one integer elimination of a #P x dim N matrix.  The sweep
    stops once that rank reaches min(#P, dim N), since no larger minor
    exists.  The degree bounds are taken from the rows of M; they also bound
    every minor of P N, because an entry of row i of P N has no larger
    degree in a or b than row i of P.
    """
    if not isinstance(M.ring, ParamRing):
        raise TypeError("symbolic_rank_bound needs a matrix over a parameter ring")
    field = M.ring.field
    da = sum(max((e.deg_a() for e in row), default=0) for row in M.rows)
    db = sum(max((e.deg_b() for e in row), default=0) for row in M.rows)
    constant, parametric = [], []
    for row in M.rows:
        if all(e.terms.keys() <= {(0, 0)} for e in row):
            constant.append([e.terms.get((0, 0), field.zero) for e in row])
        else:
            parametric.append(row)
    # the zero row keeps the column count when M has no constant rows
    kernel = nullspace_basis(ExactMatrix(field, [*constant, [field.zero] * M.ncols]))
    rank_c = M.ncols - len(kernel)
    projected = [
        [sum((e * v[c] for c, e in enumerate(row) if e and v[c]), M.ring.zero) for v in kernel]
        for row in parametric
    ]
    # entries as [(deg_a, deg_b, integral coefficient)] term lists
    rows = []
    for row in projected:
        (coeffs,) = _integral_rows([[c for e in row for c in e.terms.values()]], field)
        coeffs = iter(coeffs)
        rows.append([[(i, j, next(coeffs)) for i, j in e.terms] for e in row])
    if field.degree == 1:

        def value(terms, pa, pb):
            total = 0
            for i, j, c in terms:
                total += c * pa[i] * pb[j]
            return total

    else:

        def value(terms, pa, pb):
            total = [0] * field.degree
            for i, j, c in terms:
                w = pa[i] * pb[j]
                for k, x in enumerate(c):
                    total[k] += x * w
            return tuple(total)

    n = max(da, db) + 1
    powers = [[x**k for k in range(n)] for x in range(n)]
    ceiling = min(len(rows), len(kernel))
    best = -1
    witness = (0, 0)
    for a0, b0 in itertools.product(range(da + 1), range(db + 1)):
        pa, pb = powers[a0], powers[b0]
        grid_rows = [[value(e, pa, pb) for e in row] for row in rows]
        rank, _ = _echelon(grid_rows, len(kernel), field)
        if rank > best:
            best = rank
            witness = (a0, b0)
            if best == ceiling:
                break
    return GenericRankCertificate(rank_c + best, witness, da, db, (da + 1) * (db + 1))
