"""Fat-point schemes and exact dimensions of linear systems of plane curves.

A point of multiplicity m imposes C(m+1, 2) linear conditions on forms of
degree d: the vanishing at the point of all partial derivatives of order
k = m - 1 in x, y and z.  By Euler's formula e * g = x g_x + y g_y + z g_z
for g homogeneous of degree e >= 1, those vanish at a point P != 0 only if
every partial of lower order does, so they cut out vanishing to order m,
which is scheme-theoretic vanishing, with as many rows as the
virtual-dimension bookkeeping counts.  A form of degree d vanishing to an
order above d + 1 is zero: for m - 1 > d the rows are the C(d+2, 2)
partials of order d, which read off every coefficient, padded with zero
rows to C(m+1, 2).  Over Z/p the same holds for p > d, as Euler's formula
divides by e <= d.

One builder makes every condition row, straight from a homogeneous
coordinate triple x of the point, with no chart: the row of the order
alpha, |alpha| = k, holds prod_i falling(e_i, alpha_i) * x^(e - alpha) in
the column of each monomial x^e.  Every row of the point is made of the
values of the monomials of degree d - k, so those are taken once per point,
and which columns are nonzero, with which coefficient and which monomial,
depends only on d and m, so that pattern is built once per (d, m).  A
point's rows, a tuple of row tuples, are built once per (triple, m, d,
ring) while they stay in a bounded memo (_point_rows), integral rows and
rows at a map into Z/p alike, as there is one field.Residues ring per
prime: the paper's searches draw many schemes from one point set, and a
verdict ranks Z with its samples, and alone, so the same points come back
at the same maps.  The triple holds the field's integral coordinates
(_row_triple), or their images under a ring map into Z/p, and the builder
reads them only through mul, scale and unit, of the Field or of
field.Residues, so it has one body for every field and for residues, and
the rows built from images are the images of the integral rows.  A
conditions matrix holds its scheme, over Q as over Q(zeta_n), and every
rank and kernel reads that one matrix.  Its rows at each map of a
certificate prime are built from the images of the points' triples, and
its integral rows only on a rank drop, when a certificate reads them for
its prime budget and its exact check.  No Scalar is made on the way to a
rank.  It also says whether its kernel is rational, as it is for a
Galois-stable scheme, whose points' conjugates sigma_k(p) are its points
with the same multiplicities; the scheme reads that from its points'
triples (_conjugates), and a certificate then reads the kernel at one map
per prime.  The rows of sigma_k(p) are sigma_k of the rows of p, so a
rational vector is checked on the rows of one point per Galois orbit
(FatPointScheme.orbit_representatives, _ConditionsMatrix.orbit_rows),
which are all the integral rows a rational read builds; all of them are
built only for a lifted read or the prime budget.  Where one point's rows
outnumber all the others together, the matrix decides so once, from its multiplicities, and at each map where
that point's image has a nonzero chart coordinate it gives the rows in
the point's chart instead (_Chart): the other points' images moved
by the substitution that sends it to e_c, their rows built by the same
builder on the chart's columns alone.  A nonzero multiple of the triple
scales each row of the point by a nonzero constant, so the row space, the
ranks, the RREF nullspace bases and every witness are those of the
point's Scalar triple.  The witness check (_check_vanishing) reads the
same conditions in a second formulation, in Scalars and in an affine
chart: one Taylor expansion of the form at each point, simple or fat
(poly.taylor_coefficients), whose coefficients of total order below m are
its chart derivatives up to factorials; at a simple point that is the one
coefficient f(p), as poly.evaluate gives it.  A form with rational
coefficients is expanded at one point per Galois orbit, and at a rational
point over Q.

The nullspace of the conditions matrix is the system itself, reported as
forms in the fixed graded-lex monomial order.  A conditions matrix has
C(d+2, 2) columns even with no rows, so the empty scheme's system is every
form of degree d.  The conditions of a symbolic j-fold point P = [a, b, 1]
on I(X)_d are integral too: P's rows from the templates, integer multiples
of monomials a^e0 b^e1, times the integral kernel basis held by the
certificate of X's own conditions matrix, so X's rows keep one matrix and
one certificate.

The tangency rows of X's points z at degree r (tangency_matrix) are
z . theta(xi) at r + 1 points xi of each line z . xi = 0, linear in the
derivations theta of degree r modulo the Euler field; each is built from
xi's condition row as a simple point, the values of the monomials of
degree r there.  Their kernel, the tangent derivations, gives the lower
bound on a general point's dimension that derivation_bound reads.
"""

from __future__ import annotations

import bisect
import itertools
import operator
import random
from dataclasses import dataclass
from functools import lru_cache
from math import comb, perm

from .field import QQ, Field, FieldMismatchError, Residues
from .geom import PointConfiguration, ProjectivePoint, _cross, _monic
from .poly import (
    ExactMatrix,
    Form,
    ParamRing,
    _back_substitute,
    _certificate,
    _certify,
    _forward,
    _horner_groups,
    _shift,
    _weight_coordinate,
    evaluate,
    exact_rank,
    monomial_basis,
    nullspace_basis,
    rank_of_fraction_rows,
    taylor_coefficients,
)


class BaseLocusError(ValueError):
    """A rational map was evaluated at a base point (all forms vanish)."""


class FatPointScheme:
    """Formal sum m1*P1 + ... + mr*Pr of distinct points with multiplicities."""

    __slots__ = ("field", "parts", "_triples", "_stable", "_orbits")

    def __init__(self, field: Field, parts):
        norm, triples = [], []
        seen = set()
        for p, m in parts:
            part, triple = _fat_point(field, p, m)
            size = len(seen)
            seen.add(part[0])  # one hash per point: a repeat leaves the size as it was
            if len(seen) == size:
                raise ValueError("scheme points must be pairwise distinct")
            norm.append(part)
            triples.append(triple)
        self.field = field
        self.parts = tuple(norm)
        # the points' integral coordinates and multiplicities, taken once
        # for every conditions matrix
        self._triples = tuple(triples)
        self._stable = self._orbits = None  # read on first call

    @classmethod
    def of(cls, Z: PointConfiguration, *extra) -> "FatPointScheme":
        """Simple points of Z plus optional (point, multiplicity) extras."""
        parts = [(p, 1) for p in Z.points]
        parts.extend(extra)
        return cls(Z.field, parts)

    def plus(self, p, m: int) -> "FatPointScheme":
        """This scheme plus the fat point m*p, as its last part."""
        return self._joined(p, m, False)

    def lead(self, p, m: int) -> "FatPointScheme":
        """The fat point m*p plus this scheme, m*p as the first part, so
        that its rows come first in a conditions matrix."""
        return self._joined(p, m, True)

    def _joined(self, p, m: int, first: bool) -> "FatPointScheme":
        """This scheme with the fat point m*p as its first or last part.
        The scheme's parts and row triples are kept as they are: only p is
        normalized, and compared with the scheme's points."""
        field = self.field
        part, triple = _fat_point(field, p, m)
        if any(part[0] == q for q, _ in self.parts):
            raise ValueError("scheme points must be pairwise distinct")
        X = object.__new__(FatPointScheme)
        X.field = field
        if first:
            X.parts, X._triples = (part,) + self.parts, (triple,) + self._triples
        else:
            X.parts, X._triples = self.parts + (part,), self._triples + (triple,)
        X._stable = X._orbits = None  # read on first call
        return X

    def galois_stable(self) -> bool:
        """Whether every Galois automorphism sigma_k of the field, k in
        Field.conjugations, maps the scheme to itself: for each part
        (p, m), sigma_k(p) is a part of multiplicity m.  Then sigma_k maps
        each I(X)_d to itself, coefficient by coefficient, and so fixes
        its RREF basis, whose entries are therefore rational (Galois
        descent).  Always true over Q; taken once, on the first call."""
        if self._stable is None:
            self._stable = _galois_stable(self._triples, self.field)
        return self._stable

    def orbit_representatives(self) -> tuple:
        """The indices of the parts that are no Galois conjugate of an
        earlier part: (q, m) is left out when q is sigma_k(p), k in
        Field.conjugations, for an earlier part (p, m) of the same
        multiplicity (_conjugates).  The rows of q are then sigma_k of the
        rows of p, entry by entry, as the row builder is a polynomial with
        integer coefficients in the triple and sigma_k a ring automorphism
        of Z[zeta_n]; so a rational vector that annihilates the
        representatives' rows annihilates every row, and a form with
        rational coefficients that vanishes to order m at p does at q.
        Every part over Q; taken once, on the first call."""
        if self._orbits is None:
            self._orbits = _orbit_representatives(self._triples, self.field)
        return self._orbits

    def __len__(self):
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def condition_count(self) -> int:
        return sum(comb(m + 1, 2) for _, m in self.parts)

    def __repr__(self):
        return " + ".join(
            (f"{m}*" if m > 1 else "") + repr(p) for p, m in self.parts
        )


def _fat_point(field: Field, p, m) -> tuple:
    """A scheme part (point, multiplicity), its point a ProjectivePoint of
    field, and its (row triple, multiplicity) (_row_triple)."""
    if not isinstance(p, ProjectivePoint):
        p = ProjectivePoint(field, p)
    elif p.field != field:
        raise FieldMismatchError("scheme points over different fields")
    if not isinstance(m, int) or m < 1:
        raise ValueError("multiplicities must be integers >= 1")
    return (p, m), (_row_triple(p), m)


# The row triples of a point's Galois conjugates, keyed by its row triple
# and field; the bound holds the 62 points of an F3-F6 range scan, the 54
# Fermat points and the samples, and the 33 of a paper suite run in both
# modes, with room to spare.
@lru_cache(maxsize=128)
def _conjugates(coords: tuple, field: Field) -> tuple:
    """The row triple of sigma_k(p), for each k of Field.conjugations, of
    the point p with row triple coords (_row_triple).

    sigma_k of the stored triple of p, first nonzero coordinate 1, has
    first nonzero coordinate 1 too, so it is the stored triple of
    sigma_k(p), and conjugating the integral coordinates of a triple gives
    those of its conjugate: sigma_k is invertible on Z[zeta_n], so it
    keeps the least common denominator that _row_triple clears."""
    return tuple(tuple(field.conjugate(c, k) for c in coords) for k in field.conjugations)


def _galois_stable(parts, field: Field) -> bool:
    """Whether the (row triple, multiplicity) pairs parts are closed under
    each sigma_k (_conjugates)."""
    if not field.conjugations:
        return True
    present = set(parts)
    return all((q, m) in present for coords, m in parts for q in _conjugates(coords, field))


def _orbit_representatives(parts, field: Field) -> tuple:
    """The indices of the (row triple, multiplicity) pairs parts that are
    not sigma_k of an earlier pair's triple at the same multiplicity."""
    if not field.conjugations:
        return tuple(range(len(parts)))
    covered, kept = set(), []
    for i, (coords, m) in enumerate(parts):
        if (coords, m) not in covered:
            kept.append(i)
            covered.update((q, m) for q in _conjugates(coords, field))
    return tuple(kept)


def _row_triple(p: ProjectivePoint) -> tuple:
    """The integral coordinates the rows of p are built from: the
    Field.clear_denominators coordinates of its stored triple, the
    primitive integer triple itself at degree 1 and int tuples in the power
    basis above, so the triple times a nonzero integer."""
    return tuple(p.field.clear_denominators(p.triple)[0])


@lru_cache(maxsize=64)
def _row_templates(d: int, m: int, chart) -> tuple:
    """The condition rows of an m-fold point at degree d, in the columns of
    monomial_basis(d), or with chart = (c, j) in those of
    _chart_columns(d, c, j) alone, as (t, ncols, monomials, rows):
    the partials of order k = min(m - 1, d) in x, y, z, one row per alpha in
    monomial_basis(k), then zero rows up to C(m+1, 2), of ncols columns
    each; t = d - k is the degree of the monomials x^(e - alpha) every row
    is made of, monomials holds the exponents of those the rows read, and
    each row holds, for each nonzero column, the entry (column,
    prod_i falling(e_i, alpha_i), index of e - alpha in monomials).  At
    k = 0 the one row reads monomials in column order."""
    k = min(m - 1, d)
    basis = monomial_basis(d)
    columns = basis if chart is None else [basis[i] for i in _chart_columns(d, *chart)]
    monomials, rows = {}, []
    for alpha in monomial_basis(k):
        entries = []
        for col, e in enumerate(columns):
            rest = (e[0] - alpha[0], e[1] - alpha[1], e[2] - alpha[2])
            if min(rest) >= 0:
                coef = perm(e[0], alpha[0]) * perm(e[1], alpha[1]) * perm(e[2], alpha[2])
                entries.append((col, coef, monomials.setdefault(rest, len(monomials))))
        rows.append(tuple(entries))
    rows += [()] * (comb(m + 1, 2) - len(rows))
    return d - k, len(columns), tuple(monomials), tuple(rows)


def _build_rows(coords: tuple, m: int, d: int, ring, chart) -> tuple:
    """The C(m+1, 2) condition rows at degree d of the m-fold point with
    coordinate triple coords, as a tuple of row tuples, in the columns
    _row_templates(d, m, chart) writes them in.

    The triple holds integral coordinates of a field, or their images in a
    field.Residues ring, and the entries stay in that form: products by
    mul, int multiples by scale.  Each row is a polynomial with integer
    coefficients in the coordinates, so the rows built from the images under
    a ring map are the images of the rows.  The values at the point of the
    monomials of degree t = d - k the rows read are taken once, from its
    power table: at k = 0 the one row is those values, and otherwise the
    templates scale them into place.
    """
    mul, scale, one = ring.mul, ring.scale, ring.unit
    t, ncols, needed, templates = _row_templates(d, m, chart)
    powers = []
    for c in coords:
        row = [one]
        for _ in range(t):
            row.append(mul(row[-1], c))
        powers.append(row)
    px, py, pz = powers
    monomials = [mul(mul(px[i], py[j]), pz[k]) for i, j, k in needed]
    rows = []
    if t == d:  # order 0: the values themselves, then any zero rows
        rows.append(tuple(monomials))
        templates = templates[1:]
    zero = scale(one, 0)
    for entries in templates:
        row = [zero] * ncols
        for col, coef, i in entries:
            row[col] = scale(monomials[i], coef)
        rows.append(tuple(row))
    return tuple(rows)


# The rows of a point, keyed by (triple, m, d, ring), over a Field and over
# Z/p alike: there is one Field per conductor and one field.Residues per
# prime, so the key hashes the ring by identity.  The bound holds the
# largest scheme ranked at once, F6's 18 points and a sample, at the maps
# of prime 0 and of a certificate besides its integral rows; a search over
# the 13 points of height one, with its 3 samples, fills 48 entries.
@lru_cache(maxsize=128)
def _point_rows(coords: tuple, m: int, d: int, ring) -> tuple:
    """The C(m+1, 2) condition rows at degree d of the m-fold point with
    coordinate triple coords, on every column, memoized (_build_rows)."""
    return _build_rows(coords, m, d, ring, None)


def _condition_rows(parts, d: int, ring) -> list:
    """Condition rows at degree d of (coordinate triple, multiplicity) pairs
    over a Field or a field.Residues ring, the rows of each point, from the
    memo _point_rows, one after the other."""
    rows = []
    for coords, m in parts:
        rows += _point_rows(coords, m, d, ring)
    return rows


class _ConditionsMatrix(ExactMatrix):
    """The conditions matrix of a scheme at degree d, held as the scheme:
    its rows at a map into Z/p come from the images of the points' triples,
    its integral rows are built when first read, those of one point per
    Galois orbit apart (orbit_rows), each row is keyed by its point's
    (triple, multiplicity), which with d fixes it, its kernel is rational
    when the scheme is Galois-stable, and where one point's rows
    outnumber all the others together it is eliminated in that point's
    chart (chart)."""

    __slots__ = ("_scheme", "_degree", "_keys", "_offsets", "_center", "_orbit")

    def __init__(self, X: FatPointScheme, d: int):
        counts = [comb(m + 1, 2) for _, m in X._triples]
        self.ring, self.ncols, self.nrows = X.field, comb(d + 2, 2), sum(counts)
        self._rows = self._integral = self._orbit = None
        self._scheme, self._degree = X, d
        self._keys = [part for part, n in zip(X._triples, counts) for _ in range(n)]
        self._offsets = [0, *itertools.accumulate(counts)]  # each point's first row
        # the index of the point whose rows outnumber all others together,
        # at most C(d+2, 2) of them, and its chart coordinate, or None
        self._center = None
        top = max(counts, default=0)
        if 2 * top > self.nrows and top <= self.ncols:
            q = counts.index(top)
            coords, field = X._triples[q][0], X.field
            zero = field.scale(field.unit, 0)
            c = _weight_coordinate([x == zero for x in coords], [x == field.unit for x in coords], 1)
            self._center = q, c

    def integral_rows(self) -> list:
        if self._integral is None:
            self._integral = _condition_rows(self._scheme._triples, self._degree, self.ring)
        return self._integral

    def orbit_rows(self) -> list:
        """The integral rows of the scheme's orbit representatives
        (FatPointScheme.orbit_representatives), built when first read: all
        the integral rows when every part is one."""
        if self._orbit is None:
            X = self._scheme
            kept = X.orbit_representatives()
            if len(kept) == len(X._triples):
                self._orbit = self.integral_rows()
            else:
                self._orbit = _condition_rows([X._triples[i] for i in kept], self._degree, self.ring)
        return self._orbit

    def row_keys(self) -> list:
        return self._keys

    def residues(self, p: int, image, start: int) -> list:
        q = bisect.bisect_right(self._offsets, start) - 1
        parts = [(tuple(image(t)), m) for t, m in self._scheme._triples[q:]]
        return _condition_rows(parts, self._degree, Residues(p))[start - self._offsets[q]:]

    def rational_kernel(self) -> bool:
        return self._scheme.galois_stable()

    def chart(self, p: int, image):
        """The matrix in the chart of its dominant fat point P (_Chart) at
        this map, where P's image has a nonzero chart coordinate c and p >
        d; else None."""
        if self._center is None or p <= self._degree:
            return None
        q, c = self._center
        point = image(self._scheme._triples[q][0])
        if not point[c]:
            return None
        inverse = pow(point[c], -1, p)
        shifts = [x * inverse % p for x in point]
        shifts[c] = 0
        return _Chart(self, q, c, shifts)


def _chart_columns(d: int, c: int, j: int) -> tuple:
    """The indices in monomial_basis(d) of the monomials whose exponent of
    coordinate c is at most d - j: the C(d+2, 2) - C(j+1, 2) monomials a
    form may have that vanishes to order j at e_c."""
    return tuple(i for i, e in enumerate(monomial_basis(d)) if e[c] <= d - j)


class _Chart:
    """A conditions matrix at one map into Z/p, p > d, in the chart of its
    dominant j-fold point P, whose image there has a nonzero coordinate c.

    The substitution T: x_i -> x_i - s_i x_c (i != c, s_i = P_i / P_c) is
    unipotent and sends P to e_c.  In the basis of the forms g o T, each of
    P's C(j+1, 2) rows has one nonzero entry, a product of factorials of
    numbers at most d, in its own column of those a form vanishing to order
    j at e_c lacks.  So the rank mod p is fixed = C(j+1, 2) plus that of the
    chart's rows, the other points' conditions at their images under T on
    the ncols kept columns (_chart_columns), which poly._eliminate reads as
    a matrix's rows, under key, (C(d+2, 2), P's part), which no plain
    elimination has.
    """

    __slots__ = ("key", "ncols", "fixed", "_matrix", "_center", "_coordinate", "_shifts")

    def __init__(self, M: _ConditionsMatrix, q: int, c: int, shifts):
        part = M._scheme._triples[q]
        self.key, self.fixed = (M.ncols, part), comb(part[1] + 1, 2)
        self.ncols = M.ncols - self.fixed
        self._matrix, self._center, self._coordinate, self._shifts = M, q, c, shifts

    def row_keys(self) -> list:
        M, q = self._matrix, self._center
        return M._keys[:M._offsets[q]] + M._keys[M._offsets[q + 1]:]

    def residues(self, p: int, image, start: int) -> list:
        """The other points' rows, from row start on, built by _build_rows
        on the kept columns from their images moved by T."""
        M, q, c, shifts = self._matrix, self._center, self._coordinate, self._shifts
        parts, j = M._scheme._triples, M._scheme._triples[q][1]
        offsets = M._offsets[:q + 1] + [o - self.fixed for o in M._offsets[q + 2:]]
        first = bisect.bisect_right(offsets, start) - 1
        rows, ring = [], Residues(p)
        for coords, m in (parts[:q] + parts[q + 1:])[first:]:
            x = image(coords)
            moved = tuple([(xi - s * x[c]) % p for xi, s in zip(x, shifts)])
            rows += _build_rows(moved, m, M._degree, ring, (c, j))
        return rows[start - offsets[first]:]

    def kernel(self, echelon, p: int):
        """(pivots, kernel) of the matrix at this map, exactly as
        _back_substitute gives them from its own echelon, read from the
        chart's: each chart kernel vector g is taken back to g o T by a
        Taylor shift in each coordinate but c (_shift over _horner_groups),
        and these vectors, which span the kernel mod p, are reduced by their
        last nonzero entries (RREF in reversed column order).  A column is
        free exactly when some kernel vector ends there, so those are the
        free columns, and each vector is its column's RREF basis vector.
        """
        d, c = self._matrix._degree, self._coordinate
        columns = _chart_columns(d, c, self._matrix._scheme._triples[self._center][1])
        a, b = [i for i in range(3) if i != c]
        groups, ncols = _horner_groups(d, a, b), comb(d + 2, 2)
        pivots, kernel = _back_substitute(echelon, self.ncols, p)
        free = sorted(set(range(self.ncols)) - set(pivots))
        leads = {}  # the last nonzero column of each vector, 1 there and 0 at the others'
        for f, w in zip(free, kernel):
            g = [None] * ncols
            g[columns[f]] = 1
            for col, x in zip(pivots, w):
                g[columns[col]] = x or None
            # each group, one exponent of a, is a polynomial in b over c,
            # shifted by -s_b; then each exponent of b across the groups,
            # a polynomial in a over c, by -s_a
            rows = [[g[i] for i in group] for group in groups]
            for row in rows:
                _shift(row, -self._shifts[b], len(row), False)
            for beta in range(d + 1):
                column = [row[-1 - beta] for row in rows[beta:]]
                _shift(column, -self._shifts[a], len(column), False)
                for row, x in zip(rows[beta:], column):
                    row[-1 - beta] = x
            v = [0] * ncols
            for group, row in zip(groups, rows):
                for i, x in zip(group, row):
                    if x:
                        v[i] = x % p
            for col, u in leads.items():
                x = v[col]
                if x:
                    v = [(y - x * z) % p for y, z in zip(v, u)]
            last = max(i for i, x in enumerate(v) if x)
            inverse = pow(v[last], -1, p)
            v = [x * inverse % p for x in v]
            for col, u in leads.items():
                x = u[last]
                if x:
                    leads[col] = [(y - x * z) % p for y, z in zip(u, v)]
            leads[last] = v
        pivots = [col for col in range(ncols) if col not in leads]
        return pivots, [[leads[f][col] for col in pivots if col < f] for f in sorted(leads)]


def conditions_matrix(X: FatPointScheme, d: int) -> ExactMatrix:
    """Interpolation matrix whose nullspace is I(X)_d as coefficient vectors.

    One row per point per partial of order m - 1 in x, y, z (zero rows past
    order d), columns in the graded-lex monomial order of degree d.
    """
    if d < 0:
        raise ValueError("degree must be nonnegative")
    return _ConditionsMatrix(X, d)


def system_dimension(X: FatPointScheme, d: int) -> int:
    """dim I(X)_d by rank only, skipping the nullspace basis.  Every field
    ranks the conditions matrix alike; the degree picks only the name the
    rank is called by, rank_of_fraction_rows over Q and exact_rank above."""
    M = conditions_matrix(X, d)
    rank = rank_of_fraction_rows(M) if X.field.degree == 1 else exact_rank(M)
    return M.ncols - rank


@dataclass(frozen=True)
class LinearSystemReport:
    """Exact dimension data of I(X)_d, with a basis of forms when one was
    asked for (basis is None otherwise)."""

    degree: int
    vdim: int
    edim: int
    dim: int
    special: bool
    basis: tuple | None

    def to_dict(self) -> dict:
        out = {
            "degree": self.degree,
            "vdim": self.vdim,
            "edim": self.edim,
            "dim": self.dim,
            "special": self.special,
        }
        if self.basis is not None:
            out["basis"] = [[str(c) for c in f.coeffs] for f in self.basis]
        return out


def dim_linear_system(X: FatPointScheme, d: int, basis: bool = True) -> LinearSystemReport:
    """Exact dimension of I(X)_d with virtual/expected bookkeeping: from
    its nullspace basis, or, with basis=False, by rank alone
    (system_dimension), with no basis built."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    vdim = comb(d + 2, 2) - X.condition_count()
    edim = max(vdim, 0)
    forms = None
    if basis:
        forms = tuple(Form(X.field, d, vec) for vec in nullspace_basis(conditions_matrix(X, d)))
        dim = len(forms)
    else:
        dim = system_dimension(X, d)
    return LinearSystemReport(
        degree=d, vdim=vdim, edim=edim, dim=dim, special=(dim > edim), basis=forms
    )


def _check_vanishing(f: Form, X: FatPointScheme) -> None:
    """Post-condition: f meets every multiplicity condition of X.

    The check evaluates f exactly, apart from the condition rows, their
    templates and the kernel certificate, and in an affine chart rather
    than by Euler partials: at each m-fold point, simple or not, the Taylor
    coefficients of f of total order below m (poly.taylor_coefficients),
    the chart derivatives of those orders up to factorials, so it accepts
    exactly the forms that vanish to order m there.

    A form whose coefficients are all rational (Scalar.is_rational) is
    expanded at the scheme's orbit representatives alone
    (FatPointScheme.orbit_representatives): its Taylor coefficients at
    sigma_k(p) are sigma_k of those at p, as they are polynomials with
    rational coefficients in the form and the point.  At a rational point
    of Q(zeta_n) they are the rationals of the same expansion over Q, so
    there the form and the point are read in QQ (Scalar.as_fraction).  Any
    other form is expanded at every point, in the field.
    """
    rational = all(c.is_rational() for c in f.coeffs)
    parts = [X.parts[i] for i in X.orbit_representatives()] if rational else X.parts
    over_q = None  # f over Q, made at its first rational point
    for p, m in parts:
        g, point = f, p.coeffs
        if rational and X.field is not QQ and all(x.is_rational() for x in point):
            if over_q is None:
                over_q = Form(QQ, f.degree, [QQ.scalar(c.as_fraction()) for c in f.coeffs])
            g, point = over_q, [x.as_fraction() for x in point]
        if any(taylor_coefficients(g, point, m)):
            raise AssertionError(f"basis form fails the order-{m} condition at {p!r}")


def system_basis(X: FatPointScheme, d: int) -> list[Form]:
    """Linearly independent forms spanning I(X)_d, vanishing verified."""
    forms = list(dim_linear_system(X, d).basis)
    for f in forms:
        _check_vanishing(f, X)
    return forms


def rational_map_image(basis, p: ProjectivePoint):
    """Image [f1(p) : ... : fk(p)] in P^(k-1) of the map defined by a basis.

    Returns a ProjectivePoint when the basis has three forms (a plane map),
    otherwise the tuple of scalar values scaled to first nonzero value 1.
    """
    basis = list(basis)
    if not basis:
        raise ValueError("rational map needs a nonempty basis")
    values = [evaluate(f, p.coeffs) for f in basis]
    if all(v.is_zero() for v in values):
        raise BaseLocusError(f"{p!r} lies in the base locus of the map")
    if len(values) == 3:
        return ProjectivePoint(p.field, values)
    return _monic(tuple(values))


def symbolic_conditions_matrix(X: FatPointScheme, j: int, d: int) -> ExactMatrix:
    """The general point's conditions on I(X)_d: P N over the ParamRing of
    X's field, P the C(j+1, 2) condition rows at degree d of j*P for P =
    [a, b, 1] symbolic, N the RREF kernel basis of X's conditions matrix C,
    one column per vector.

    C's row space is exactly the set of vectors that N annihilates, so
    rank [C; P(a, b)] = rank C + rank(P(a, b) N) at every (a, b), and the
    generic dim I(X + jP)_d is dim I(X)_d less the generic rank of P N.
    N is read in integral coordinates from the certificate of the
    scheme-held conditions_matrix(X, d) (poly._certificate, as
    nullspace_basis reads it), each vector without its denominator, which
    scales one column: so no Scalar is made, and a later rank or basis of
    C finds the certificate kept.  P's template entry (column, coef, i) is
    the term coef * a^e0 * b^e1, (e0, e1, _) = monomial_basis(t)[i], and
    one row's entries have distinct monomials, so each entry of P N is one
    term per template entry where the vector is nonzero.  Every term has
    total degree at most t = d - j + 1 (for j <= d + 1); the grid reads its
    degree bounds off these rows.
    """
    field = X.field
    _, kernel = _certificate(conditions_matrix(X, d))
    zero = field.scale(field.unit, 0)
    _, _, monomials, templates = _row_templates(d, j, None)
    rows = [
        [{monomials[i][:2]: field.scale(v[col], coef) for col, coef, i in entries if v[col] != zero}
         for v, _ in kernel]
        for entries in templates
    ]
    return ExactMatrix.from_integral(ParamRing(field), rows, len(kernel))


def _tangency_rows(pairs, r: int, ring) -> list:
    """One row per (z, xi) pair of coordinate triples: z . theta(xi) as a
    linear form in the derivations theta = (theta0, theta1, theta2) of
    degree r modulo Euler, whose columns are theta0's monomials that x
    does not divide, then theta1's and theta2's, in the order of
    monomial_basis(r).  Every derivation is one of these plus g times the
    Euler field (x, y, z), whose value z . xi g(xi) is zero on the line
    z . xi = 0.

    The triples hold integral coordinates of a field, or residues in a
    field.Residues ring, read through the ring's operations alone, so the
    rows built from images under a ring map are the images of the rows.
    The values at xi of the monomials of degree r are xi's one condition
    row as a simple point at degree r (_build_rows, not memoized, as no
    xi comes back)."""
    mul = ring.mul
    skip = comb(r + 1, 2)  # the monomials x divides, first in monomial_basis(r)
    rows = []
    for z, xi in pairs:
        (values,) = _build_rows(xi, 1, r, ring, None)
        rows.append([mul(z[0], v) for v in values[skip:]] + [mul(z[i], v) for i in (1, 2) for v in values])
    return rows


class _TangencyMatrix(ExactMatrix):
    """A tangency matrix (tangency_matrix): its eliminations are read once,
    by its certificate, and are not kept (ExactMatrix.resumable)."""

    __slots__ = ()
    resumable = False


def tangency_matrix(X: FatPointScheme, r: int) -> ExactMatrix:
    """The derivations of degree r modulo Euler that are tangent to the
    lines z . xi = 0 of X's points z, as a kernel: r + 1 integral rows per
    point, z . theta(xi) at xi = u + t v for t = 0 .. r (_tangency_rows).

    u = z x e_a and v = z x e_b, for a and b the two indices other than the
    first k with z_k != 0, span the line, as det(z, e_a, e_b) = +-z_k != 0,
    so z . theta(s u + t v), a binary form of degree r, is zero exactly
    when it is at these r + 1 points; two nonzero z x e_i chosen otherwise
    may be parallel."""
    field = X.field
    zero, scale = field.scale(field.unit, 0), field.scale
    pairs = []
    for z, _ in X._triples:
        k = next(i for i, c in enumerate(z) if c != zero)
        u, v = [_cross_unit(z, i, field) for i in range(3) if i != k]
        pairs += [(z, tuple(map(field.add, u, [scale(c, t) for c in v]))) for t in range(r + 1)]
    ncols = 3 * comb(r + 2, 2) - comb(r + 1, 2)
    return _TangencyMatrix.from_integral(field, _tangency_rows(pairs, r, field), ncols)


def _cross_unit(z, i: int, field: Field) -> tuple:
    """The cross product z x e_i of integral coordinates z and the i-th unit
    vector: z_(i+2) at i + 1, -z_(i+1) at i + 2, indices mod 3, 0 at i."""
    out = [field.scale(field.unit, 0)] * 3
    out[(i + 1) % 3] = z[(i + 2) % 3]
    out[(i + 2) % 3] = field.scale(z[(i + 1) % 3], -1)
    return tuple(out)


def derivation_bound(X: FatPointScheme, j: int, P: ProjectivePoint, count: int) -> int:
    """A lower bound on the generic dim I(X + jQ)_(j+1), Q general, from the
    derivations tangent to X's lines at degree j, read at the point P off X.

    For theta tangent, F(x) = x . theta(P x x) lies in I(X + jP)_(j+1):
    P x z lies on the line of z, so F(z) = 0, and F(P + s) = (P + s) .
    theta(P x s) has no term of order below j in s; an Euler multiple gives
    F = 0.  The rank of theta -> F can only grow at a general point, and
    the rank of the values at count points x under a ring map into Z/p can
    only be lower than the rank of the forms.  So the rank of those values
    bounds the generic value from below, with the tangent derivations read
    exactly, each vector checked to annihilate every row, from the residue
    certificate of tangency_matrix(X, j) (poly._certify, kept in neither
    store, as nothing reads it again), and taken to Z/p at the first map of
    prime 0.  The points x are drawn from a fixed seed, and F's value at x
    is _tangency_rows's row of (x, P x x) applied to theta."""
    _, kernel = _certify(tangency_matrix(X, j))
    if not kernel:
        return 0
    p, images, _ = X.field.certificate_prime(0)
    image = images[0]
    q = image(_row_triple(P))
    rng = random.Random(f"fatpoints:derivations:{p}")
    pairs = []
    for _ in range(count):
        x = [rng.randrange(p) for _ in range(3)]
        pairs.append((x, _cross(q, x)))
    thetas = [image(coords) for coords, _ in kernel]
    rows = _tangency_rows(pairs, j, Residues(p))
    values = [[sum(map(operator.mul, row, theta)) % p for theta in thetas] for row in rows]
    echelon = []
    _forward(values, len(thetas), p, echelon, [], count)
    return len(echelon)
