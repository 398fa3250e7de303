"""Dense homogeneous forms in x, y, z and exact matrix kernels.

Monomials of each degree d live in a fixed graded-lexicographic order with
x > y > z; coefficient vectors (length C(d+2,2)) in that order are part of
the external contract, so reports are reproducible bit for bit.  A form is
read at a point by one routine, taylor_coefficients: its Taylor
coefficients of total order below m in an affine chart, by nested
synthetic division, whose one coefficient at m = 1 is the value evaluate
returns, so an m-fold point's conditions and a simple point's value are
one computation.

An ExactMatrix over a field or a parameter ring holds its rows as integer
(or cyclotomic-integer) coordinates, each a nonzero multiple of its Scalar
or ParamPoly row: rows of values are scaled once (_integral_rows).  Their
layout is the field's, read only through Field.mul, Field.scale, Field.add,
Field.unit, Field.flat and Field.group, so the prime budget, the certificate
and its exact check have one body for every field.  Every rank and every
nullspace basis is then read off one sequence of primes p = 1 (mod n),
Field.certificate_prime(k), and one packed forward elimination mod p
(_forward), run at roots of Phi_n mod p: each a ring map Z[zeta_n] -> Z/p.
The image of a minor is the minor of the image, so pivot columns
independent mod p are independent.  A matrix gives its rows at a map
(ExactMatrix.residues) and keys them for resuming an elimination
(ExactMatrix.row_keys): here the images of its integral rows, and the rows.
A conditions matrix (linsys) holds its scheme instead, over Q as over
Q(zeta_n): the rows at each map are built from the images of its points'
coordinates, keyed by the points, and its integral rows only on a rank
drop, where the certificate's prime budget and exact check read them.
Two module stores of one bound (_keep) outlive a verdict: the last
elimination at each map and width, after whose shared rows the next resumes
(_eliminate), as a search's consecutive subsets share most of their points,
and each certificate under its row keys, which a witness reads again.

A rank is first taken at the first root of prime 0, below 2^15: full rank
there proves full rank, which is the expected-dimension case of nearly
every conditions matrix.  Every other rank, and every nullspace basis, is
a checked residue certificate (_certify).  Over Q it starts at prime 0 and
resumes the full-rank test's elimination; over Q(zeta_n) it starts at
prime 1 (Field.certificate_start), as prime 0 has one map per root there,
of which the test ran one.  How the kernel is read is fixed before the
first prime (ExactMatrix.rational_kernel): one known to be rational, as
that of a matrix with rational entries or of the conditions matrix of a
Galois-stable scheme is, is read from the residues at the first map of
each prime alone, by CRT and rational reconstruction; any other from every
map, each entry's residues lifted to its coordinates mod p.  A vector is
returned only after an exact integer check that it annihilates the rows
and has the shape of a reduced row echelon (RREF) basis vector, which
bounds the rank from above; a rational vector is checked on
ExactMatrix.orbit_rows, which for a conditions matrix are the rows of one
point per Galois orbit.
Nullspace bases are the standard bases of the RREF, so they are canonical
regardless of pivot choices.

A conditions matrix whose j-fold point P has more rows than all others
together is eliminated, at each map where it can be, in P's chart
(ExactMatrix.chart, which linsys builds): its rank mod p is C(j+1, 2)
plus the chart's, and the chart's kernel, taken back, is the (pivots,
kernel) of the plain elimination, so primes, reconstruction and exact
check are unchanged.  Dual F6's samples at degree 9 are eliminated as
18 x 19 matrices, not 54 x 55.

The symbolic grid alone ranks otherwise, on every field: it evaluates its
points in plain ints and ranks them by fraction-free (Bareiss) elimination,
measured faster there than the certificate.  The one-step Bareiss update
keeps every intermediate entry equal to a minor of the scaled matrix, which
controls coefficient blowup, and every division is exact and checked.  A
grid matrix with an irrational entry is ranked in the field's regular
representation, over Q, and its rank checked to be a multiple of phi.

Symbolic mode works over a dense bivariate polynomial ring Q(zeta_n)[a, b];
generic ranks of parameter matrices are certified by evaluation on an
integer grid that the degree bounds of the relevant minors make
unisolvent: every minor has degree at most da in a, db in b and D in
total, and a polynomial with those bounds that vanishes at every (a, b)
with 0 <= a <= da, 0 <= b <= db and a + b <= D is zero, so the grid is
that triangle cut from the (da + 1) x (db + 1) square (Chung and Yao,
SIAM J. Numer. Anal. 14, 1977, for the principal lattice).  The matrix
certified for a general point is its conditions on I(Z)_d, projected in
integers onto the kernel of Z's conditions matrix
(linsys.symbolic_conditions_matrix): 79 points for the example's quartic at
(j, d) = (3, 4), where da = db = 9 and D = 12.  Every grid rank is taken
from integral rows, and the sweep stops as soon as the rank reaches
min(nrows, ncols).  The certificate's grid_points is the size of the grid
the degree bounds require, not the number of points evaluated.
"""

from __future__ import annotations

import itertools
import operator
import struct
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, isqrt

from .field import Field, FieldMismatchError, Scalar


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

    def clear_denominators(self, values) -> tuple[list, int]:
        """(coords, den) for parameter polynomials, or values coercible to
        them: each becomes a {(deg_a, deg_b): coordinate} dict, the
        Field.clear_denominators coordinates of all the term coefficients
        over their one common denominator den."""
        polys = [self.coerce(v) for v in values]
        coords, den = self.field.clear_denominators([c for p in polys for c in p.terms.values()])
        coords = iter(coords)
        return [{e: next(coords) for e in p.terms} for p in polys], den

    def from_integral(self, coords, den: int = 1) -> list["ParamPoly"]:
        """Parameter polynomials with the integral term coordinates coords
        over den, zero terms dropped; inverse of clear_denominators."""
        field = self.field
        values = [field.from_integral(terms.values(), den) for terms in coords]
        return [ParamPoly(field, {e: c for e, c in zip(t, v) if c}) for t, v in zip(coords, values)]

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
        out[idx[tuple(e2)]] = c if k == 1 else c * k
    return Form(f.ring, d - 1, out)


@lru_cache(maxsize=None)
def _horner_groups(d: int, a: int, b: int) -> tuple:
    """The indices of monomial_basis(d) grouped by the exponent of
    coordinate a, from d down to 0, and each group ordered by the exponent
    of coordinate b, from its top down to 0: the k-th index of a group of
    length t + 1 has exponent t - k in b and k in the third coordinate."""
    index = _monomial_index(d)
    c = 3 - a - b
    groups = []
    for ea in range(d, -1, -1):
        group = []
        for eb in range(d - ea, -1, -1):
            e = [0, 0, 0]
            e[a], e[b], e[c] = ea, eb, d - ea - eb
            group.append(index[tuple(e)])
        groups.append(tuple(group))
    return tuple(groups)


def _shift(h: list, p, k: int, unit: bool) -> None:
    """k passes of synthetic division by x - p, in place, on the
    coefficients of a polynomial h(x) from its top degree down, None for a
    zero one: afterwards h[-1 - i] is the coefficient of s^i in h(p + s),
    for i < k.  One pass is Horner's rule, and no product is formed by
    p = 1 (unit) or by a zero coefficient: None, and on the passes after
    the first a sum that cancelled to zero too, so Horner's rule, one pass,
    tests no sum."""
    n = len(h) - 1
    for i in range(min(k, n)):
        for j in range(1, n + 1 - i):
            x = h[j - 1]
            if x is None or i and not x:
                continue
            if not unit:
                x = p * x
            y = h[j]
            h[j] = x if y is None else y + x


def _weight_coordinate(zero, unit, m: int) -> int:
    """The coordinate c of the chart taylor_coefficients reads an m-fold
    point in, from which of its coordinates are zero and which equal 1:
    among the nonzero ones, last first, one equal to 1 at m = 1 and one
    not equal to 1 above, else the last nonzero one (2 for none)."""
    nonzero = [i for i in (2, 1, 0) if not zero[i]]
    return next((i for i in nonzero if unit[i] == (m == 1)), nonzero[0] if nonzero else 2)


def taylor_coefficients(f: Form, point, m: int) -> list:
    """The Taylor coefficients of total order below m of the form at a
    coordinate triple (ring elements), in one affine chart: with a, b, c a
    permutation of the coordinates and p_c != 0, the coefficient of
    s^alpha t^beta in f(p + s e_a + t e_b) is d_a^alpha d_b^beta f(p) /
    (alpha! beta!), listed by beta, then alpha.  All of them vanish exactly
    when f vanishes to order m at the point, and at m = 1 the one
    coefficient is f(p), the monomial sum.

    Nested synthetic division over _horner_groups(d, a, b): each group, the
    terms of one exponent of a, homogeneous in b and c, is weighted by
    powers of p_c and shifted in b up to order m; then each order beta in
    t, across the groups, is shifted in a up to order m - beta.  The chart
    spares products: a zero coordinate is a, where only the groups of its
    exponents below m are read, or b, where only those terms of each group
    are; a coordinate equal to 1 forms no product where it is shifted, at
    every order, and as c no power, which at m = 1, where a shift is one
    Horner pass, spares the table of powers too, so it is c at m = 1 and
    is shifted above.
    """
    ring = f.ring
    p = [ring.coerce(x) for x in point]
    d, coeffs, one = f.degree, f.coeffs, ring.one
    zero = [not x for x in p]
    unit = [x == one for x in p]
    c = _weight_coordinate(zero, unit, m)
    a, b = [i for i in range(3) if i != c]
    if (zero[b] and not zero[a]) or (unit[a] and not unit[b]):
        a, b = b, a
    weights = None if unit[c] else [one, *itertools.accumulate([p[c]] * d, operator.mul)]
    groups = _horner_groups(d, a, b)[-m:] if zero[a] else _horner_groups(d, a, b)
    rows = []  # each group's coefficients in t, order beta at row[-1 - beta]
    for group in groups:
        start = max(len(group) - m, 0) if zero[b] else 0
        row = [coeffs[i] or None for i in group[start:]]
        if weights is not None:
            for k, x in enumerate(row, start):
                if k and x is not None:
                    row[k - start] = x * weights[k]
        if not zero[b]:
            _shift(row, p[b], m, unit[b])
        rows.append(row)
    out = []
    for beta in range(m):
        column = [row[-1 - beta] for row in rows if len(row) > beta]
        if not zero[a]:
            _shift(column, p[a], m - beta, unit[a])
        out += column[: -1 - (m - beta) : -1]
    return [ring.zero if x is None else x for x in out]


def evaluate(f: Form, point) -> object:
    """Value of the form at a coordinate triple (ring elements): the one
    Taylor coefficient of order 0, by nested Horner, about one ring product
    per term."""
    return taylor_coefficients(f, point, 1)[0]


# ---------------------------------------------------------------------------
# exact matrices
# ---------------------------------------------------------------------------


class ExactMatrix:
    """Immutable nrows x ncols matrix over a Field or a ParamRing (symbolic).

    The matrix holds the integral coordinates of its rows (_integral_rows:
    each row times a nonzero constant, so the row space is the same), and
    ranks, kernels and grid certificates read those, and their images at
    the maps of the certificate primes (residues).  A matrix built from
    values coerces them to ring elements, keeps them as its rows and clears
    their denominators once, when a rank or certificate first needs them; its
    width is that of its rows, 0 when it has none.  One built from_integral
    is given its width, so it may have no rows and still ncols columns, and
    derives its Scalar or ParamPoly rows on the first read of rows.
    """

    __slots__ = ("ring", "nrows", "ncols", "_rows", "_integral")

    def __init__(self, ring, rows):
        self._rows = tuple([tuple([ring.coerce(e) for e in row]) for row in rows])
        self._integral = None
        self._shape(ring, self._rows, len(self._rows[0]) if self._rows else 0)

    @classmethod
    def from_integral(cls, ring, rows, ncols: int) -> "ExactMatrix":
        """The len(rows) x ncols matrix whose rows are the ring elements with
        these integral coordinates (ring.from_integral), held as they are:
        ints over Q, int tuples over Q(zeta_n), {(deg_a, deg_b): int or int
        tuple} dicts over a ParamRing.  With no rows it is the zero-row
        matrix whose kernel is all of K^ncols."""
        M = object.__new__(cls)
        M._rows, M._integral = None, rows
        M._shape(ring, rows, ncols)
        return M

    def _shape(self, ring, rows, ncols: int) -> None:
        if set(map(len, rows)) - {ncols}:
            raise ValueError("ragged matrix")
        self.ring = ring
        self.nrows = len(rows)
        self.ncols = ncols

    @property
    def rows(self) -> tuple:
        if self._rows is None:
            from_integral = self.ring.from_integral
            self._rows = tuple(tuple(from_integral(row)) for row in self.integral_rows())
        return self._rows

    def integral_rows(self) -> list:
        """The integral coordinates of the rows, over a Field or a ParamRing,
        as _integral_rows gives them."""
        if self._integral is None:
            self._integral = _integral_rows(self._rows, self.ring)
        return self._integral

    def orbit_rows(self) -> list:
        """Integral rows that a rational vector annihilates only if it
        annihilates every row, which a rational read checks (_certify):
        here all of them."""
        return self.integral_rows()

    def row_keys(self) -> list:
        """One key per row, equal for two rows of ncols columns over the same
        field only if the rows are equal: here the integral rows themselves.
        An elimination resumes after the rows whose keys it shares with the
        last one (_eliminate)."""
        return self.integral_rows()

    def residues(self, p: int, image, start: int):
        """The rows from row start on under the ring map image of
        Field.certificate_prime into Z/p, each entry in [0, p): here the
        image of each integral row."""
        return map(image, self.integral_rows()[start:])

    def rational_kernel(self) -> bool:
        """Whether the kernel is known to be rational, so that a certificate
        reads it at the first map of each prime alone (_certify): here when
        no integral entry has a coordinate past the first (Field.flat), as
        over Q."""
        flat = self.ring.flat
        return not any(any(flat(x)[1:]) for row in self.integral_rows() for x in row)

    def chart(self, p: int, image):
        """The matrix at the ring map image into Z/p in the chart of a
        dominant fat point, eliminated there in its stead
        (_residue_echelon), or None: here always None."""
        return None

    def __repr__(self):
        return f"ExactMatrix({self.nrows}x{self.ncols} over {self.ring!r})"


def _integral_rows(rows, ring) -> list:
    """Each row's integral coordinates (the ring's clear_denominators): int
    rows over Q, int-tuple rows over Q(zeta_n), rows of term dicts over a
    ParamRing, each the row times a nonzero constant."""
    return [ring.clear_denominators(row)[0] for row in rows]


def _echelon_int(rows, ncols):
    """Fraction-free (Bareiss) forward elimination over Z, in place;
    returns (rank, pivot cols).  Only the symbolic grid runs it, at each
    grid point, on every field."""
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
            # one spot check per row: the last column's division must be exact
            last, rem = divmod(piv * rowr[-1] - rc * rowp[-1], prev)
            if rem:
                raise ArithmeticError("inexact division in Bareiss elimination")
            rows[r] = [(piv * rowr[cc] - rc * rowp[cc]) // prev for cc in range(ncols - 1)]
            rows[r].append(last)
        prev = piv
        pivots.append(c)
        pr += 1
        if pr == m:
            break
    return len(pivots), pivots


@lru_cache(maxsize=None)
def _packing(ncols: int, p: int):
    """The one slot layout of _forward's rows of ncols residues mod p:
    (slots, shifts, mask), column c in the slot at bit shifts[c] that mask
    covers.  A slot has at least 8 bytes and room for p + ncols * p^2, so
    none carries into the next; the struct slots packs residues below 2^64
    and unpacks each slot's low 8 bytes, all of a row reduced mod p < 2^62."""
    width = max(8, ((ncols + 1) * p * p).bit_length() // 8 + 1)
    slots = struct.Struct("<" + f"Q{width - 8}x" * ncols)
    return slots, range(0, 8 * width * ncols, 8 * width), (1 << 8 * width) - 1


def _forward(residues, ncols: int, p: int, echelon, sizes, slack: int) -> None:
    """Forward elimination mod p of residue rows, extending echelon and sizes.

    Each new row is reduced against the echelon rows so far and appended,
    scaled to pivot 1, as (bit offset of the pivot column, packed row, pivot
    column); sizes gets the number of echelon rows after each row.  So
    each echelon row is 0 at the pivots of earlier ones and before its
    own.  The elimination stops once echelon has ncols rows, or once more
    than slack rows have reduced to zero.

    A row is packed into one int in the slots of _packing, so that adding
    (p - f) times an echelon row is one multiply-add, and is unpacked mod
    p once, to find its pivot; echelon holds it packed only.
    """
    slots, shifts, mask = _packing(ncols, p)
    for row in residues:
        if len(echelon) == ncols or len(sizes) - len(echelon) > slack:
            break
        if echelon:
            v = int.from_bytes(slots.pack(*row), "little")
            for shift, prow, _ in echelon:
                f = (v >> shift & mask) % p
                if f:
                    v += (p - f) * prow
            if mask >> 64:  # wide slots hold more than their low 8 bytes
                row = [(v >> s & mask) % p for s in shifts]
            else:  # prime 0's slots: one struct call unpacks the row
                row = [x % p for x in slots.unpack(v.to_bytes(slots.size, "little"))]
        c = next((c for c, x in enumerate(row) if x), None)
        if c is not None:
            inv = pow(row[c], -1, p)
            echelon.append((shifts[c], int.from_bytes(slots.pack(*[x * inv % p for x in row]), "little"), c))
        sizes.append(len(echelon))


def _back_substitute(echelon, ncols: int, p: int):
    """Pivot columns and RREF kernel mod p of a _forward echelon.

    Returns (pivots, kernel): the pivot columns in increasing order, and
    for each free column f, in increasing order, the residues of its RREF
    basis vector at the pivots before f; the vector is 1 at f and 0 at
    every other column.  The echelon rows, each unpacked by one struct call
    (_packing), are unit upper triangular on the pivot columns in pivot
    order, so back substitution solves for each free column.
    """
    slots = _packing(ncols, p)[0]
    reduced = {c: slots.unpack(prow.to_bytes(slots.size, "little")) for _, prow, c in echelon}
    pivots = sorted(reduced)
    kernel = []
    for f in range(ncols):
        if f in reduced:
            continue
        before = [c for c in pivots if c < f]
        w = [0] * len(before)
        for i in range(len(before) - 1, -1, -1):
            row = reduced[before[i]]
            s = row[f]
            for k in range(i + 1, len(before)):
                s += row[before[k]] * w[k]
            w[i] = -s % p
        kernel.append(w)
    return pivots, kernel


# The last elimination under each key (field, ncols, k, i), or (field,
# chart.key, k, i) in a chart, as (row keys, echelon, sizes), and each
# certificate under (field, ncols, row keys), least recently stored first.
# A certificate fills one key per map it eliminates: map 0 of each prime
# for a kernel known to be rational, as every verdict of the suite and the
# benchmark does, every map of each prime for any other (_certify).  A
# search fills 2; dual F5 at degree 7 fills 10, Z's and 3 for each sample,
# each in its own chart, and F6 at degrees 8 and 9 fills 13.  But a chart's
# elimination is read again only right after it is stored, by a
# certificate over Q resuming its full-rank test, a verdict shares no
# width with the next one of a range scan, and it reads only its own
# certificates, at most 3: a larger bound would only hold wide echelons
# longer.
_STORE_BOUND = 8
_eliminations: dict = {}
_certificates: dict = {}
_storing = threading.Lock()


def _keep(store: dict, key, value) -> None:
    """Stores value under key, last, and drops the first entries past
    _STORE_BOUND, under a lock, so threads may share the store."""
    with _storing:
        store.pop(key, None)
        store[key] = value
        while len(store) > _STORE_BOUND:
            del store[next(iter(store))]


def _eliminate(M: ExactMatrix, p: int, image, key, slack: int) -> list:
    """The _forward echelon of M's rows under a ring map image into Z/p,
    as M.residues gives them.

    The elimination is kept in the store _eliminations under key, (field,
    ncols, k, i) for the i-th map of Field.certificate_prime(k), and the
    next one under key resumes after the rows whose keys (M.row_keys) it
    shares with this one, from copies of the echelon rows they left, so a
    stored elimination is never changed.  The store outlives a verdict:
    over Q a certificate resumes where the full-rank test of the same rows
    stopped, each sample of a verdict starts with the rows of the points of
    Z, whose rank the verdict took first, and a verdict starts with the
    points it shares with the last elimination at its key, which a search's
    previous subset left.  _forward is deterministic and greedy, so a
    resumed echelon is the one a fresh elimination of the same rows gives.
    The store is bounded (_keep).
    """
    keys = M.row_keys()
    start, echelon, sizes = 0, [], []
    last = _eliminations.get(key)
    if last is not None:
        last, echelon, sizes = last
        for new, old, _ in zip(keys, last, sizes):
            if new != old:
                break
            start += 1
        echelon, sizes = echelon[: sizes[start - 1]] if start else [], sizes[:start]
    _forward(M.residues(p, image, start), M.ncols, p, echelon, sizes, slack)
    _keep(_eliminations, key, (keys, echelon, sizes))
    return echelon


def _residue_echelon(M: ExactMatrix, k: int, i: int, p: int, image, slack: int):
    """(echelon, chart): the _eliminate echelon of M's rows at the i-th map
    of Field.certificate_prime(k), and None; or, where M has a chart there,
    the chart's echelon and the chart, which is eliminated as a matrix is
    and gives fixed, the rank it leaves out, and kernel(echelon, p), M's
    (pivots, kernel) as _back_substitute gives them.  A chart's elimination
    is kept under (field, chart.key, k, i), so no plain one resumes it."""
    chart = M.chart(p, image)
    if chart is None:
        return _eliminate(M, p, image, (M.ring, M.ncols, k, i), slack), None
    return _eliminate(chart, p, image, (M.ring, chart.key, k, i), slack), chart


def _reconstruct(values, modulus: int):
    """Rationals from residues mod modulus, over one common denominator:
    (numerators, den), or None when some value has no fraction a/b with
    |a| and b at most isqrt(modulus // 2).

    A value times the denominator so far may already be a small numerator;
    otherwise the half extended Euclid reconstructs the value on its own
    (von zur Gathen and Gerhard, Modern Computer Algebra, 5.10), and the
    common denominator takes in its denominator.  Two fractions within the
    bound that agree mod modulus are equal, so with enough primes this is
    the only candidate; a wrong residue can still give a wrong candidate,
    which the exact check of _certify rejects.
    """
    bound = isqrt(modulus // 2)
    half = modulus // 2
    den = 1
    nums = []
    for x in values:
        t = x * den % modulus
        if t > half:
            t -= modulus
        if abs(t) > bound:
            r0, r1, s0, s1 = modulus, x, 0, 1
            while r1 > bound:
                q = r0 // r1
                r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
            if abs(s1) > bound:
                return None
            if s1 < 0:
                r1, s1 = -r1, -s1
            g = gcd(den, s1)
            nums = [n * (s1 // g) for n in nums]
            t = r1 * (den // g)
            den *= s1 // g
        nums.append(t)
    return nums, den


def _prime_budget(rows, field: Field) -> int:
    """The number of primes after which _certify gives up.

    Let T be the Hadamard bound, the product over the rows of the 2-norm of
    the l1 norms of their entries' coordinates, so that |s(D)| <= T for
    every minor D and every complex embedding s.  An RREF entry is a
    quotient y/D of two minors (Cramer), and its coordinates are those of
    y D' / N(D), D' the product of the other conjugates of D: a denominator
    of at most T^phi and numerators of at most K T^phi, with K =
    phi^((phi + 1) / 2) bounding the inverse Vandermonde matrix of the
    primitive roots of unity.  So once the primes of the true pivots
    multiply past 2 K^2 T^(2 phi), reconstruction cannot fail.  A prime
    with other pivots divides N(D), at most T^phi, for the pivot minor D.
    Every prime but prime 0 is 2^61 or more, and prime 0, below 2^15,
    which only certificates over Q draw (Field.certificate_start), is
    counted as one more.  Over Q, phi = K = 1.
    """
    phi, flat = field.degree, field.flat
    squares = [sum(sum(map(abs, flat(x))) ** 2 for x in row) for row in rows]
    log_t = sum(s.bit_length() + 1 for s in squares) // 2 + 1
    log_k = ((phi + 1) * phi.bit_length() + 1) // 2
    return (3 * phi * log_t + 2 * log_k + 1) // 61 + 3


def _annihilates(rows, f: int, den: int, entries, times, field: Field) -> bool:
    """Whether a vector with the RREF shape of free column f is nonzero and
    annihilates every row exactly, in integers.

    The vector is the int den at f, entries, a list of (column, value), at
    the pivots before f, and zero elsewhere.  Its products with the rows'
    integral coordinates are Field.scale for den, and times for the values:
    Field.scale for the ints of a rational read, Field.mul for the
    coordinates of a lifted one, so a rational candidate is checked without
    making its coordinates."""
    zero, add, scale = field.scale(field.unit, 0), field.add, field.scale
    if den == 0:
        return False
    for row in rows:
        total = scale(row[f], den)
        for c, x in entries:
            if row[c] != zero:
                total = add(total, times(row[c], x))
        if total != zero:
            return False
    return True


def _certify(M: ExactMatrix):
    """The RREF pivots and kernel of a matrix over a field, as a checked
    residue certificate: (pivots, kernel), kernel a list of (coords, den),
    the integral coordinates and common denominator of the basis vector of
    each free column, in order.

    For k = Field.certificate_start, k + 1, ... the rows are taken to Z/p
    by maps of Field.certificate_prime(k) and eliminated there (_eliminate,
    so that over Q it resumes the full-rank test of _rank at prime 0), and
    back substitution gives the kernel mod p (_back_substitute); at a map
    where M has a chart (_residue_echelon), the chart is eliminated, and
    its kernel reads the same pivots and kernel mod p from it, while the
    budget and the exact check read M's own integral rows.  Pivot columns
    that are independent mod p are independent, as the image of their
    minor is nonzero.  Reduction can only move pivots later, so a prime is
    dropped when its maps disagree on the pivots or its pivots fall after
    the best pivots so far, and better pivots restart the collection.

    How the kernel is read is fixed before the first prime, by
    ExactMatrix.rational_kernel.  A kernel known to be rational, as that of
    a matrix with rational entries is, and that of the conditions matrix of
    a Galois-stable scheme (Galois descent), is read rational: each prime
    eliminates map 0 alone, the residues there of the primes collected are
    combined by CRT and rationally reconstructed (_reconstruct), and a
    numerator x is checked against a row entry r as Field.scale(r, x); only
    the vector accepted gets the coordinates Field.scale(unit, x).  Over Q
    map 0 is the only map.  Any other kernel is read lifted: every map of
    every prime is eliminated, and each entry's residues are taken to its
    coordinates mod p (Field.certificate_prime's lift) and combined and
    reconstructed the same way.  A rational read that reaches prime
    _prime_budget eliminates the other maps of the primes collected and
    makes the lifted read of those whose maps agree on the pivots before
    it gives up: so no prime past the budget is drawn, and a kernel wrongly
    known rational costs the primes up to the budget, not an error, as the
    flag only chooses how the kernel is read.  The budget is computed only
    when a read needs it: once a prime past 3 is drawn, or at prime 3 when
    its read is skipped or fails.

    A vector is accepted only when _annihilates passes: the RREF shape and
    M w = 0 in integers, on every integral row for a lifted read and on
    ExactMatrix.orbit_rows for a rational one.  A rational w that
    annihilates the rows of a point's triple t annihilates those of
    sigma_k(t), sigma_k of them entry by entry, as sigma_k(row . w) =
    sigma_k(row) . w: so it annihilates every row, whether the kernel is
    rational or only read so.  Once every free column has one, each free
    column lies in the span of the pivot columns before it, and those are
    independent: so the pivots are exactly the greedy ones, the rank is
    their number, and each vector, being unique, is the RREF basis vector.
    A failed read adds a prime; past prime _prime_budget, ArithmeticError.
    The integral rows are read for the budget and a lifted read's check
    only, and a rational read builds the orbit representatives' alone.
    """
    field, ncols = M.ring, M.ncols
    zero, unit, flat = field.scale(field.unit, 0), field.unit, field.flat
    budget, best = None, None  # best: the pivots of the primes collected
    lifted = not M.rational_kernel()  # how the kernel is read

    def last(k) -> bool:
        """Whether prime k is the last of the budget, which is 3 primes or
        more and is computed (_prime_budget) only when first asked of a
        prime k >= 3."""
        nonlocal budget
        if k < 3:
            return False
        budget = budget or _prime_budget(M.integral_rows(), field)
        return k == budget

    def eliminate(prime) -> bool:
        """Adds the kernel of a prime at each map the read takes, map 0
        alone for a rational read, where it is still missing; whether all
        the kernels have map 0's pivots."""
        k, p, images, _, found = prime
        for i in range(len(found), len(images) if lifted else 1):
            echelon, chart = _residue_echelon(M, k, i, p, images[i], M.nrows)
            found.append(_back_substitute(echelon, ncols, p) if chart is None else chart.kernel(echelon, p))
        return all(pivots == found[0][0] for pivots, _ in found)

    def read() -> bool:
        """Accepts the checked vector of each free column still open,
        reconstructed from the primes collected, read rational or lifted;
        whether every free column has one."""
        residues, modulus = None, 1
        for _, p, _, lift, found in collection:
            # each kernel vector's coordinates mod p at the pivots before f
            if lifted:
                kernels = zip(*[kernel for _, kernel in found])
                values = [[c for x in zip(*vectors) for c in flat(lift(x))] for vectors in kernels]
            else:
                values = found[0][1]
            if residues is None:
                residues = values
            else:
                step = pow(modulus, -1, p)
                residues = [
                    [r + modulus * ((x - r) * step % p) for r, x in zip(old, new)]
                    for old, new in zip(residues, values)
                ]
            modulus *= p
        # a lifted read gives coordinates, checked on every row, a rational
        # one ints, checked on one point's rows per orbit
        rows = M.integral_rows() if lifted else M.orbit_rows()
        for f, vector in zip(free, residues):
            candidate = None if f in accepted else _reconstruct(vector, modulus)
            if candidate is None:
                continue
            nums, den = candidate
            values, times = (field.group(nums), field.mul) if lifted else (nums, field.scale)
            entries = list(zip(best, values))
            if _annihilates(rows, f, den, entries, times, field):
                coords = [zero] * ncols
                coords[f] = field.scale(unit, den)
                for c, x in entries:
                    coords[c] = x if lifted else field.scale(unit, x)
                accepted[f] = (coords, den)
        return len(accepted) == len(free)

    for k in itertools.count(field.certificate_start):
        if k > 3 and last(k - 1):
            raise ArithmeticError(f"no checked kernel after {budget} primes")
        p, images, lift = field.certificate_prime(k)
        found = []  # (pivots, kernel) at each map eliminated
        prime = (k, p, images, lift, found)
        if not eliminate(prime):
            continue
        pivots = found[0][0]
        if best is not None and pivots + [ncols] > best + [ncols]:
            continue
        if pivots != best:
            best, accepted, collection = pivots, {}, []
            free = sorted(set(range(ncols)) - set(pivots))
            attempt = 1
        collection.append(prime)
        # reconstruction costs about the square of the modulus' size, so
        # past a few primes it is tried at counts 5/4 apart, and at the last
        if len(collection) < attempt and not last(k):
            continue
        attempt = max(len(collection) + 1, len(collection) * 5 // 4)
        if read():
            return best, [accepted[f] for f in free]
        if not lifted and last(k):
            # the rational read reached the budget: the primes collected get
            # their other maps, and the lifted read decides before raising
            # (over Q no map is missing, and the two reads are one)
            lifted = any(len(found) < len(images) for _, _, images, _, found in collection)
            collection = [prime for prime in collection if eliminate(prime)]
            if lifted and collection and read():
                return best, [accepted[f] for f in free]


def _certificate(M: ExactMatrix):
    """_certify, kept in the store _certificates (_keep), or the certificate
    of the same matrix from there, found by M's field, width and row keys:
    so a conditions matrix finds the certificate of an earlier matrix of the
    same scheme, a rank's for a nullspace basis, without its integral rows."""
    key = (M.ring, M.ncols, tuple(map(tuple, M.row_keys())))
    found = _certificates.get(key)
    if found is None:
        found = _certify(M)
        _keep(_certificates, key, found)
    return found


def _rank(M: ExactMatrix) -> int:
    """Rank of a matrix over a field, its certificate kept in the store
    _certificates (_certificate) and its eliminations in the store
    _eliminations (_eliminate).

    The rows are first eliminated at the first map of prime 0
    (Field.certificate_prime), in M's chart if it has one there
    (_residue_echelon), until full rank min(nrows, ncols) is out of
    reach.  The map is a ring homomorphism, so a maximal minor with a
    nonzero residue is nonzero: full rank of the residues proves full rank.
    Otherwise the checked certificate (_certify) decides; over Q its first
    elimination resumes this one.  A residue rank is never returned below
    full rank.
    """
    full = min(M.nrows, M.ncols)
    p, images, _ = M.ring.certificate_prime(0)
    echelon, chart = _residue_echelon(M, 0, 0, p, images[0], M.nrows - full)
    if len(echelon) + (0 if chart is None else chart.fixed) == full:
        return full
    pivots, _ = _certificate(M)
    return len(pivots)


def exact_rank(M: ExactMatrix) -> int:
    """Rank over the field: full rank modulo the first certificate prime,
    below 2^15, proves full rank, and a checked residue certificate
    (_certify) decides every other case."""
    if not isinstance(M.ring, Field):
        raise TypeError("exact_rank needs a matrix over a field; see symbolic_rank_bound")
    return _rank(M)


def rank_of_fraction_rows(M: ExactMatrix) -> int:
    """Rank over Q of a matrix, as exact_rank takes it: linsys ranks its
    conditions matrices over Q by this name, which the benchmark's tracing
    table reads."""
    return _rank(M)


def nullspace_basis(M: ExactMatrix) -> list[tuple[Scalar, ...]]:
    """Canonical basis of {v : Mv = 0}: the RREF standard basis, one vector
    per free column f, equal to 1 at f and 0 at the other free columns.

    The rows are scaled to integral coordinates, and the basis is the
    checked residue certificate of _certify: found mod primes, lifted by
    CRT and rational reconstruction, and returned only after an exact
    integer check that it annihilates M and has the RREF shape.  Vectors
    carry one coordinate per column of M, in column order; the size of the
    basis is ncols - rank.
    """
    if not isinstance(M.ring, Field):
        raise TypeError("nullspace_basis needs a matrix over a field")
    field = M.ring
    _, kernel = _certificate(M)
    return [tuple(field.from_integral(coords, den)) for coords, den in kernel]


@dataclass(frozen=True)
class GenericRankCertificate:
    """Generic rank of a parameter matrix with a grid-evaluation certificate.

    The witness attains the rank (lower bound); since every minor of the
    matrix has degree at most degree_bound_a in a, degree_bound_b in b and
    a total-degree bound D in both, vanishing of all (rank+1)-minors on the
    grid {(a, b) : 0 <= a <= degree_bound_a, 0 <= b <= degree_bound_b,
    a + b <= D} forces them to vanish identically (upper bound; the proof is
    symbolic_rank_bound's).  grid_points is the size of that grid, as the
    degree bounds require it; the sweep stops early once no larger minor
    exists, so fewer points may be evaluated.
    """

    rank: int
    witness: tuple
    degree_bound_a: int
    degree_bound_b: int
    grid_points: int


def symbolic_rank_bound(M: ExactMatrix) -> GenericRankCertificate:
    """Certified generic rank of a matrix over a parameter ring.

    Each grid point ranks M's integral rows evaluated there in plain ints
    by Bareiss elimination (_echelon_int), on every field, and no store is
    touched.  If every term coefficient is rational (Field.flat), as for a
    Galois-stable Z, each is its first coordinate.  Otherwise each becomes
    its phi x phi block of the regular representation, Field.flat(c z^k)[r]
    at (r, k): a Q-linear map whose Q-rank is phi times the rank, so the
    Bareiss rank is divided by phi, and ArithmeticError if phi does not
    divide it.  Constant rows are ranked at each point like any other.  The
    sweep stops once the rank reaches min(nrows, ncols), since no larger
    minor exists.

    The degree bounds are taken from the term keys of M's rows: da and db
    are the sums over the rows of each row's largest degree in a and in b,
    and D (dt) the sum of each row's largest total degree i + j, so every
    minor has degree at most da in a, db in b and D in total.  The grid is
    S = {(a, b) : 0 <= a <= da, 0 <= b <= db, a + b <= D}, swept in
    lexicographic order, and a polynomial g within those bounds that
    vanishes on S is zero.  By induction on da: g(0, b) has degree at most
    min(db, D) in b and vanishes at the min(db, D) + 1 points b = 0, ...,
    min(db, D), so a divides g; the quotient has degrees at most da - 1 in
    a, db in b and D - 1 in total and vanishes on the rest of S, whose
    points have a >= 1, which after the shift a -> a + 1 is the grid of the
    bounds (da - 1, db, D - 1).  At da = 0 the first step alone gives g =
    0, and a total degree D < 0 leaves only g = 0.  So a minor that
    vanishes on S vanishes identically, and the largest rank on S is the
    generic rank.
    """
    if not isinstance(M.ring, ParamRing):
        raise TypeError("symbolic_rank_bound needs a matrix over a parameter ring")
    field, ncols, integral = M.ring.field, M.ncols, M.integral_rows()
    da = sum(max((i for e in row for i, _ in e), default=0) for row in integral)
    db = sum(max((j for e in row for _, j in e), default=0) for row in integral)
    dt = sum(max((i + j for e in row for i, j in e), default=0) for row in integral)
    grid = [(a0, b0) for a0 in range(da + 1) for b0 in range(min(db, dt - a0) + 1)]
    flat, mul = field.flat, field.mul
    if not any(any(flat(c)[1:]) for row in integral for e in row for c in e.values()):
        phi = 1
        rows = [[[(i, j, flat(c)[0]) for (i, j), c in e.items()] for e in row] for row in integral]
    else:
        phi = field.degree
        z_powers = field.group([int(r == k) for k in range(phi) for r in range(phi)])
        rows = []
        for row in integral:
            blocks = [[(i, j, [flat(mul(c, z)) for z in z_powers]) for (i, j), c in e.items()] for e in row]
            rows += [[[(i, j, b[k][r]) for i, j, b in terms if b[k][r]] for terms in blocks for k in range(phi)]
                     for r in range(phi)]

    def value(terms, pa, pb):
        total = 0
        for i, j, c in terms:
            total += c * pa[i] * pb[j]
        return total

    n = max(da, db) + 1
    powers = [[x**k for k in range(n)] for x in range(n)]
    ceiling = min(M.nrows, ncols)
    best = -1
    witness = (0, 0)
    for a0, b0 in grid:
        pa, pb = powers[a0], powers[b0]
        r, rest = divmod(_echelon_int([[value(e, pa, pb) for e in row] for row in rows], phi * ncols)[0], phi)
        if rest:
            raise ArithmeticError(f"a rank over Q not divisible by the degree {phi}")
        if r > best:
            best = r
            witness = (a0, b0)
            if best == ceiling:
                break
    return GenericRankCertificate(best, witness, da, db, len(grid))
