"""Fat-point schemes and exact dimensions of linear systems of plane curves.

A point of multiplicity m imposes C(m+1, 2) linear conditions on forms of
degree d: the vanishing at the point of all partial derivatives of order
below m in the two variables u, v other than the point's last nonzero
coordinate c.  Vanishing to order m there is equivalent to
scheme-theoretic vanishing, and the row count matches the virtual-dimension
bookkeeping exactly.

One builder makes every condition row, straight from a homogeneous
coordinate triple x of the point: the row of the derivative order
(a_u, a_v) holds falling(e_u, a_u) * falling(e_v, a_v) * x^(e - a) in the
column of each monomial x^e.  The triple holds the field's integral
coordinates (_row_triple), whose layout the builder reads only through
Field.mul, Field.scale and Field.unit, so it has one body for every field.
A conditions matrix is integral as built, and no Scalar is made on the way
to its rank.
Dividing the row by the nonzero scalar x_c^(d - a_u - a_v) gives the
derivative row in the affine chart x_c = 1, so the row space, the ranks,
the RREF nullspace bases and every witness are those of the chart rows.
Which columns are nonzero, with which coefficient and which power of x,
depends only on d, m and the chart c, so that pattern is built once per
(d, m, c) and each point only fills in the values of its monomials.

The nullspace of the conditions matrix is the system itself, reported as
forms in the fixed graded-lex monomial order.  A conditions matrix has
C(d+2, 2) columns even with no rows, so the empty scheme's system is every
form of degree d.  The symbolic conditions matrix of Z + jP, P = [a, b, 1],
is integral too: it reads the rows of Z from Z's own integral conditions
matrix as constant terms, and the rows of P from the templates, whose
entries at [a, b, 1] are integer multiples of the monomials a^e0 b^e1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .field import Field, FieldMismatchError
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
        norm = []
        seen = set()
        for p, m in parts:
            if not isinstance(p, ProjectivePoint):
                p = ProjectivePoint(field, p)
            elif p.field != field:
                raise FieldMismatchError("scheme points over different fields")
            if not isinstance(m, int) or m < 1:
                raise ValueError("multiplicities must be integers >= 1")
            if p in seen:
                raise ValueError("scheme points must be pairwise distinct")
            seen.add(p)
            norm.append((p, m))
        self.field = field
        self.parts = tuple(norm)
        # the points' integral coordinates, taken once for every conditions matrix
        self._triples = [(_row_triple(p), m) for p, m in norm]

    @classmethod
    def of(cls, Z: PointConfiguration, *extra) -> "FatPointScheme":
        """Simple points of Z plus optional (point, multiplicity) extras."""
        parts = [(p, 1) for p in Z.points]
        parts.extend(extra)
        return cls(Z.field, parts)

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


def _chart_index(coords) -> int:
    for i in (2, 1, 0):
        c = coords[i]
        if any(c) if type(c) is tuple else c:
            return i
    raise AssertionError("unreachable: zero point")


def _derivative_orders(m: int):
    """Multi-indices (order in u, order in v) of total order < m."""
    out = []
    for o in range(m):
        for au in range(o, -1, -1):
            out.append((au, o - au))
    return out


def _falling(e: int, k: int) -> int:
    out = 1
    for i in range(k):
        out *= e - i
    return out


def _row_triple(p: ProjectivePoint) -> tuple:
    """The integral coordinates the rows of p are built from.

    At degree 1 that is the primitive integer triple, negated when its
    chart coordinate is negative, so that the chart coordinate is positive;
    above, the Field.clear_denominators coordinates of the stored Scalar
    triple, int tuples in the power basis: the triple times a nonzero
    integer.
    """
    t = p.triple
    if p.field.degree != 1:
        return tuple(p.field.clear_denominators(t)[0])
    if t[_chart_index(t)] < 0:
        return (-t[0], -t[1], -t[2])
    return t


@lru_cache(maxsize=64)
def _row_templates(d: int, m: int, chart: int) -> tuple:
    """The condition rows of an m-fold point in chart c at degree d, one per
    derivative order (a_u, a_v), as (t, entries): the degree t = d - a_u -
    a_v of the monomials x^(e - a) the row is made of, and for each
    nonzero column the entry (column of x^e, falling(e_u, a_u) *
    falling(e_v, a_v), index of e - a in monomial_basis(t))."""
    u, v = [i for i in range(3) if i != chart]
    templates = []
    for au, av in _derivative_orders(m):
        t = d - au - av
        entries = []
        for col, e in enumerate(monomial_basis(d)):
            if e[u] >= au and e[v] >= av:
                e2 = list(e)
                e2[u] -= au
                e2[v] -= av
                coef = _falling(e[u], au) * _falling(e[v], av)
                entries.append((col, coef, monomial_basis(t).index(tuple(e2))))
        templates.append((t, tuple(entries)))
    return tuple(templates)


def _condition_rows(parts, d: int, field: Field) -> list:
    """Condition rows at degree d of (coordinate triple, multiplicity) pairs.

    The triples hold integral coordinates of field, and the entries stay in
    that form: products by Field.mul, int multiples by Field.scale.
    The values at the point of the monomials of each degree t are taken
    once, from its power table: the row of derivative order 0 is those of
    degree d, and every other row scales them into place by _row_templates.
    """
    ncols = comb(d + 2, 2)
    mul, scale, one = field.mul, field.scale, field.unit
    zero = scale(one, 0)
    rows = []
    for coords, m in parts:
        chart = _chart_index(coords)
        powers = []
        for c in coords:
            row = [one]
            for _ in range(d):
                row.append(mul(row[-1], c))
            powers.append(row)
        px, py, pz = powers
        values = {}  # degree t -> the values of monomial_basis(t) at the point
        for t, entries in _row_templates(d, m, chart):
            if not entries:  # a derivative order above d
                rows.append([zero] * ncols)
                continue
            if t not in values:
                values[t] = [mul(mul(px[i], py[j]), pz[k]) for i, j, k in monomial_basis(t)]
            monomials = values[t]
            if t == d:  # derivative order 0
                rows.append(monomials)
                continue
            row = [zero] * ncols
            for col, coef, i in entries:
                row[col] = scale(monomials[i], coef)
            rows.append(row)
    return rows


def conditions_matrix(X: FatPointScheme, d: int) -> ExactMatrix:
    """Interpolation matrix whose nullspace is I(X)_d as coefficient vectors.

    One row per point per derivative multi-index of order < m, columns in
    the graded-lex monomial order of degree d.
    """
    if d < 0:
        raise ValueError("degree must be nonnegative")
    rows = _condition_rows(X._triples, d, X.field)
    return ExactMatrix.from_integral(X.field, rows, comb(d + 2, 2))


def system_dimension(X: FatPointScheme, d: int) -> int:
    """dim I(X)_d by rank only, skipping the nullspace basis."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    ncols = comb(d + 2, 2)
    if X.field.degree == 1:
        return ncols - rank_of_fraction_rows(_condition_rows(X._triples, d, X.field), ncols)
    return ncols - exact_rank(conditions_matrix(X, d))


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
    the condition rows and the kernel certificate.  Each point's orders
    (a_u, a_v), a_u + a_v < m, are walked as a chain: d_u^a_u f from
    d_u^(a_u - 1) f, then d_v one step at a time, so an m-fold point takes
    C(m+1, 2) - 1 derivatives and every (point, order) pair is evaluated.
    """
    for p, m in X.parts:
        coords = p.coeffs
        chart = _chart_index(coords)
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


def symbolic_conditions_matrix(Z: PointConfiguration, j: int, d: int) -> ExactMatrix:
    """Integral conditions matrix of Z + j*P at degree d with P = [a, b, 1]
    symbolic, over the ParamRing of Z's field.

    Rows for the points of Z are constant: Z's own integral conditions
    matrix, each entry x as the term dict {(0, 0): x}.  Rows for the general
    point are read off _row_templates in chart z: the entry (column, coef,
    i) is the term coef * a^e0 * b^e1, (e0, e1, _) = monomial_basis(t)[i],
    with coef in the field's integral coordinates, coef times Field.unit.
    """
    field = Z.field
    ncols = comb(d + 2, 2)
    constant = conditions_matrix(FatPointScheme.of(Z), d).integral_rows()
    rows = [[{(0, 0): x} for x in row] for row in constant]
    for t, entries in _row_templates(d, j, 2):
        basis = monomial_basis(t)
        row = [{} for _ in range(ncols)]
        for col, coef, i in entries:
            e0, e1, _ = basis[i]
            row[col] = {(e0, e1): field.scale(field.unit, coef)}
        rows.append(row)
    return ExactMatrix.from_integral(ParamRing(field), rows, ncols)
