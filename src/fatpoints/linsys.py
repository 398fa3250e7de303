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
verdict ranks Z alone and then with each sample, so the same points come
back at the same maps.  The triple holds the field's integral coordinates
(_row_triple), or their images under a ring map into Z/p, and the builder
reads them only through mul, scale and unit, of the Field or of
field.Residues, so it has one body for every field and for residues, and
the rows built from images are the images of the integral rows.  A
conditions matrix holds its scheme, over Q as over Q(zeta_n), and every
rank and kernel reads that one matrix.  Its rows at each map of a
certificate prime are built from the images of the points' triples, and
its integral rows only on a rank drop, when a certificate reads them for
its prime budget and its exact check.  No Scalar is made on the way to a
rank.  A nonzero multiple of the triple
scales each row of the point by a nonzero constant, so the row space, the
ranks, the RREF nullspace bases and every witness are those of the
point's Scalar triple.  The witness check (_check_vanishing) walks
derivatives in an affine chart instead, a second formulation of the same
conditions.

The nullspace of the conditions matrix is the system itself, reported as
forms in the fixed graded-lex monomial order.  A conditions matrix has
C(d+2, 2) columns even with no rows, so the empty scheme's system is every
form of degree d.  The symbolic conditions matrix of X + jP, P = [a, b, 1],
is integral too: it reads the rows of X from X's own integral conditions
matrix as constant terms, and the rows of P from the templates, whose
entries at [a, b, 1] are integer multiples of the monomials a^e0 b^e1 of
total degree at most d - j + 1.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb, perm

from .field import Field, FieldMismatchError, Residues
from .geom import PointConfiguration, ProjectivePoint, _monic
from .poly import (
    ExactMatrix,
    Form,
    ParamRing,
    evaluate,
    exact_rank,
    monomial_basis,
    nullspace_basis,
    partial_derivative,
    rank_of_fraction_rows,
)


class BaseLocusError(ValueError):
    """A rational map was evaluated at a base point (all forms vanish)."""


class FatPointScheme:
    """Formal sum m1*P1 + ... + mr*Pr of distinct points with multiplicities."""

    __slots__ = ("field", "parts", "_triples")

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

    @classmethod
    def of(cls, Z: PointConfiguration, *extra) -> "FatPointScheme":
        """Simple points of Z plus optional (point, multiplicity) extras."""
        parts = [(p, 1) for p in Z.points]
        parts.extend(extra)
        return cls(Z.field, parts)

    def plus(self, p, m: int) -> "FatPointScheme":
        """This scheme plus the fat point m*p.  Its parts and row triples
        are kept as they are: only p is normalized, and compared with the
        scheme's points."""
        part, triple = _fat_point(self.field, p, m)
        if any(part[0] == q for q, _ in self.parts):
            raise ValueError("scheme points must be pairwise distinct")
        X = object.__new__(FatPointScheme)
        X.field, X.parts, X._triples = self.field, self.parts + (part,), self._triples + (triple,)
        return X

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


def _chart_index(coords, zero) -> int:
    """The last coordinate of a point that is not zero."""
    for i in (2, 1, 0):
        if coords[i] != zero:
            return i
    raise AssertionError("unreachable: zero point")


def _row_triple(p: ProjectivePoint) -> tuple:
    """The integral coordinates the rows of p are built from: the
    Field.clear_denominators coordinates of its stored triple, the
    primitive integer triple itself at degree 1 and int tuples in the power
    basis above, so the triple times a nonzero integer."""
    return tuple(p.field.clear_denominators(p.triple)[0])


@lru_cache(maxsize=64)
def _row_templates(d: int, m: int) -> tuple:
    """The condition rows of an m-fold point at degree d, as (t, rows): the
    partials of order k = min(m - 1, d) in x, y, z, one row per alpha in
    monomial_basis(k), then zero rows up to C(m+1, 2); t = d - k is the
    degree of the monomials x^(e - alpha) every row is made of, and each
    row holds, for each nonzero column, the entry (column of x^e,
    prod_i falling(e_i, alpha_i), index of e - alpha in monomial_basis(t))."""
    k = min(m - 1, d)
    t = d - k
    index = {e: i for i, e in enumerate(monomial_basis(t))}
    rows = []
    for alpha in monomial_basis(k):
        entries = []
        for col, e in enumerate(monomial_basis(d)):
            rest = (e[0] - alpha[0], e[1] - alpha[1], e[2] - alpha[2])
            if min(rest) >= 0:
                coef = perm(e[0], alpha[0]) * perm(e[1], alpha[1]) * perm(e[2], alpha[2])
                entries.append((col, coef, index[rest]))
        rows.append(tuple(entries))
    rows += [()] * (comb(m + 1, 2) - len(rows))
    return t, tuple(rows)


# The rows of a point, keyed by (triple, m, d, ring), over a Field and over
# Z/p alike: there is one Field per conductor and one field.Residues per
# prime, so the key hashes the ring by identity.  The bound holds the
# largest scheme ranked at once, F6's 18 points and a sample, at the maps
# of prime 0 and of a certificate besides its integral rows; a search over
# the 13 points of height one, with its 3 samples, fills 48 entries.
@lru_cache(maxsize=128)
def _point_rows(coords: tuple, m: int, d: int, ring) -> tuple:
    """The C(m+1, 2) condition rows at degree d of the m-fold point with
    coordinate triple coords, as a tuple of row tuples, memoized.

    The triple holds integral coordinates of a field, or their images in a
    field.Residues ring, and the entries stay in that form: products by
    mul, int multiples by scale.  Each row is a polynomial with integer
    coefficients in the coordinates, so the rows built from the images under
    a ring map are the images of the rows.  The values at the point of the
    monomials of degree t = d - k are taken once, from its power table: at
    k = 0 the one row is those values, and otherwise _row_templates scales
    them into place.
    """
    mul, scale, one = ring.mul, ring.scale, ring.unit
    t, templates = _row_templates(d, m)
    powers = []
    for c in coords:
        row = [one]
        for _ in range(t):
            row.append(mul(row[-1], c))
        powers.append(row)
    px, py, pz = powers
    monomials = [mul(mul(px[i], py[j]), pz[k]) for i, j, k in monomial_basis(t)]
    rows = []
    if t == d:  # order 0: the values themselves, then any zero rows
        rows.append(tuple(monomials))
        templates = templates[1:]
    zero, ncols = scale(one, 0), comb(d + 2, 2)
    for entries in templates:
        row = [zero] * ncols
        for col, coef, i in entries:
            row[col] = scale(monomials[i], coef)
        rows.append(tuple(row))
    return tuple(rows)


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
    its integral rows are built when first read, and each row is keyed by
    its point's (triple, multiplicity), which with d fixes it."""

    __slots__ = ("_parts", "_degree", "_keys", "_offsets")

    def __init__(self, X: FatPointScheme, d: int):
        counts = [comb(m + 1, 2) for _, m in X._triples]
        self.ring, self.ncols, self.nrows = X.field, comb(d + 2, 2), sum(counts)
        self._rows = self._integral = None
        self._parts, self._degree = X._triples, d
        self._keys = [part for part, n in zip(X._triples, counts) for _ in range(n)]
        self._offsets = [0, *itertools.accumulate(counts)]  # each point's first row

    def integral_rows(self) -> list:
        if self._integral is None:
            self._integral = _condition_rows(self._parts, self._degree, self.ring)
        return self._integral

    def row_keys(self) -> list:
        return self._keys

    def residues(self, p: int, image, start: int) -> list:
        q = bisect.bisect_right(self._offsets, start) - 1
        parts = [(tuple(image(t)), m) for t, m in self._parts[q:]]
        return _condition_rows(parts, self._degree, Residues(p))[start - self._offsets[q]:]


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
    """Exact dimension data of I(X)_d together with a basis of forms."""

    degree: int
    vdim: int
    edim: int
    dim: int
    special: bool
    basis: tuple

    def to_dict(self) -> dict:
        return {
            "degree": self.degree,
            "vdim": self.vdim,
            "edim": self.edim,
            "dim": self.dim,
            "special": self.special,
            "basis": [[str(c) for c in f.coeffs] for f in self.basis],
        }


def dim_linear_system(X: FatPointScheme, d: int) -> LinearSystemReport:
    """Exact dimension of I(X)_d with virtual/expected bookkeeping."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    vdim = comb(d + 2, 2) - X.condition_count()
    edim = max(vdim, 0)
    forms = tuple(Form(X.field, d, vec) for vec in nullspace_basis(conditions_matrix(X, d)))
    dim = len(forms)
    return LinearSystemReport(
        degree=d, vdim=vdim, edim=edim, dim=dim, special=(dim > edim), basis=forms
    )


def _check_vanishing(f: Form, X: FatPointScheme) -> None:
    """Post-condition: f meets every multiplicity condition of X.

    The check runs by symbolic differentiation and evaluation, apart from
    the condition rows and the kernel certificate, and in the affine chart
    of the point's last nonzero coordinate c rather than by Euler partials:
    with u, v the other two coordinates, each point's orders
    (a_u, a_v), a_u + a_v < m, are walked as a chain: d_u^a_u f from
    d_u^(a_u - 1) f, then d_v one step at a time, so an m-fold point takes
    C(m+1, 2) - 1 derivatives and every (point, order) pair is evaluated.
    """
    for p, m in X.parts:
        coords = p.coeffs
        chart = _chart_index(coords, p.field.zero)
        u, v = [i for i in range(3) if i != chart]
        fu = f
        for au in range(m):
            if au:
                fu = partial_derivative(fu, u)
            g = fu
            for av in range(m - au):
                if av:
                    g = partial_derivative(g, v)
                if not evaluate(g, coords).is_zero():
                    raise AssertionError(
                        f"basis form fails the order-{m} condition at {p!r}"
                    )


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
    """Integral conditions matrix of X + j*P at degree d with P = [a, b, 1]
    symbolic, over the ParamRing of X's field.

    Rows for the points of X are constant: X's own integral conditions
    matrix, each entry x as the term dict {(0, 0): x}.  Rows for the general
    point are read off _row_templates: the entry (column, coef, i) is the
    term coef * a^e0 * b^e1, (e0, e1, _) = monomial_basis(t)[i], with coef
    in the field's integral coordinates, coef times Field.unit.  Every such
    term has total degree at most t = d - j + 1 (for j <= d + 1), which is
    what the grid's degree bounds read.
    """
    field = X.field
    ncols = comb(d + 2, 2)
    constant = conditions_matrix(X, d).integral_rows()
    rows = [[{(0, 0): x} for x in row] for row in constant]
    t, templates = _row_templates(d, j)
    basis = monomial_basis(t)
    for entries in templates:
        row = [{} for _ in range(ncols)]
        for col, coef, i in entries:
            e0, e1, _ = basis[i]
            row[col] = {(e0, e1): field.scale(field.unit, coef)}
        rows.append(row)
    return ExactMatrix.from_integral(ParamRing(field), rows, ncols)
