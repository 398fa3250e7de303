"""Projective points, lines, incidence statistics, duality and equivalence.

A point or line of P^2 stores one canonical coordinate triple, so equality
is plain tuple equality.  Over Q (and every field of degree 1) that is the
primitive integer triple: gcd 1, first nonzero coordinate positive.  Over
Q(zeta_n) it is the Scalar triple whose first nonzero coordinate is 1.  The
coeffs of either is that Scalar triple; over Q it is derived from the
integer triple on each read.  Joins, meets and frames are computed on the
stored triples by the same generic helpers, so over Q they are integer
cross products and determinants, normalized by a gcd.  The join of two
stored triples is memoized, bounded (_joined), as searches join the same
pairs of one point set again and again.

Configurations are ordered lists of distinct points; incidence statistics
and equivalence treat them as sets.

Collinearity inside a configuration is decided in one place, the line
inventory of analyze_lines.  Equivalence testing computes the inventory of
each configuration once: a mismatch of line histograms rejects early, and a
quadruple is in general position iff no line of its inventory holds three of
its points.  The frame is anchored at the lexicographically smallest
general-position quadruple of the first configuration, and every ordered
general-position quadruple of the second is tried as its image.  Sets
without such a quadruple are decided only up to two points and for
triangles, any two of which are equivalent.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import gcd, prod

from .field import Field, FieldMismatchError


class DegenerateInputError(ValueError):
    """Geometric precondition broken (equal points, singular transform...)."""


def _primitive(v) -> tuple:
    """The primitive integer triple of a nonzero int triple: gcd 1, first
    nonzero coordinate positive."""
    g = gcd(*v)
    if not g:
        raise DegenerateInputError("all-zero homogeneous triple")
    if (v[0] or v[1] or v[2]) < 0:
        g = -g
    return (v[0] // g, v[1] // g, v[2] // g)


def _monic(v) -> tuple:
    """A nonzero Scalar tuple scaled to first nonzero coordinate 1; a tuple
    that has it already is returned as it is, with no inverse."""
    for c in v:
        if c:
            if c == c.field.one:
                return v
            inv = c.inverse()
            return tuple(x * inv for x in v)
    raise DegenerateInputError("all-zero homogeneous triple")


def _canonical(field: Field):
    """The normalization of the stored triples over field."""
    return _primitive if field.degree == 1 else _monic


def _lead(t):
    return t[0] or t[1] or t[2]


def _normalize(field: Field, coeffs) -> tuple:
    """The stored triple of homogeneous coordinates given as ints, Fractions,
    grammar strings or Scalars of field."""
    coords = tuple(coeffs)
    if len(coords) != 3:
        raise ValueError("homogeneous triples have three coordinates")
    if field.degree != 1:
        return _monic(tuple(field.scalar(c) for c in coords))
    values = [c if isinstance(c, (int, Fraction)) else field.scalar(c) for c in coords]
    ints, _ = field.clear_denominators(values)
    return _primitive(ints)


class _Homogeneous:
    """A point or line of P^2, stored as its canonical triple."""

    __slots__ = ("field", "triple")

    def __init__(self, field: Field, coeffs):
        self.field = field
        self.triple = _normalize(field, coeffs)

    @classmethod
    def _stored(cls, field: Field, triple: tuple):
        """From a triple that is already canonical over field."""
        obj = object.__new__(cls)
        obj.field = field
        obj.triple = triple
        return obj

    @property
    def coeffs(self) -> tuple:
        """The Scalar triple with first nonzero coordinate 1."""
        t = self.triple
        if self.field.degree != 1:
            return t
        return tuple(self.field.from_integral(t, _lead(t)))

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.field == other.field
            and self.triple == other.triple
        )

    def __hash__(self):
        return hash((type(self).__name__, self.field, self.triple))

    def __repr__(self):
        left, right = self._brackets
        return left + ", ".join(str(c) for c in self.coeffs) + right


class ProjectivePoint(_Homogeneous):
    """Point of P^2, printed with first nonzero coordinate 1."""

    __slots__ = ()
    _brackets = "[]"


class ProjectiveLine(_Homogeneous):
    """Line a*x + b*y + c*z = 0, stored like a point."""

    __slots__ = ()
    _brackets = "<>"


def _cross(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


# keyed by the normalization and the two triples, which fix the result; the
# bound holds the 78 pairs of the 13 points of height one, which a search
# joins again for each subset, with room to spare
@lru_cache(maxsize=256)
def _joined(normalize, u: tuple, v: tuple):
    """The normalized cross product of u and v, or None when it is zero."""
    w = _cross(u, v)
    return normalize(w) if any(w) else None


def _join(a: _Homogeneous, b: _Homogeneous, message: str) -> tuple:
    """Stored triple of the cross product of two distinct points (or lines)
    over one field, read from the memo _joined."""
    w = _joined(_canonical(a.field), a.triple, b.triple)
    if w is None:
        raise DegenerateInputError(message)
    return w


def line_through(p: ProjectivePoint, q: ProjectivePoint) -> ProjectiveLine:
    """The unique line joining two distinct points.  The join of the two
    stored triples is memoized, bounded (_joined); two equal points raise
    DegenerateInputError on every call."""
    if p.field != q.field:
        raise FieldMismatchError("points over different fields")
    return ProjectiveLine._stored(p.field, _join(p, q, "line_through needs two distinct points"))


def meet(l1: ProjectiveLine, l2: ProjectiveLine) -> ProjectivePoint:
    """The unique common point of two distinct lines."""
    if l1.field != l2.field:
        raise FieldMismatchError("lines over different fields")
    return ProjectivePoint._stored(l1.field, _join(l1, l2, "meet needs two distinct lines"))


class PointConfiguration:
    """Ordered list of pairwise distinct points over one field."""

    __slots__ = ("field", "points")

    def __init__(self, field: Field, points):
        pts = []
        for p in points:
            if not isinstance(p, ProjectivePoint):
                p = ProjectivePoint(field, p)
            elif p.field != field:
                raise FieldMismatchError("configuration points over different fields")
            pts.append(p)
        if len(set(pts)) != len(pts):
            raise DegenerateInputError("configuration points must be pairwise distinct")
        self.field = field
        self.points = tuple(pts)

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __getitem__(self, i):
        return self.points[i]

    def __contains__(self, p):
        return p in self.points

    def __eq__(self, other):
        return (
            isinstance(other, PointConfiguration)
            and self.field == other.field
            and self.points == other.points
        )

    def __hash__(self):
        return hash((self.field, self.points))

    def point_set(self) -> frozenset:
        return frozenset(self.points)

    def lift(self, field: Field) -> "PointConfiguration":
        """Explicit embedding of a rational configuration into a larger field.

        Unlike scalar arithmetic, which rejects mixed fields, lifting is an
        explicit request; only Q -> K lifts are meaningful here.
        """
        if field == self.field:
            return self
        if self.field != Field("rational"):
            raise FieldMismatchError("only rational configurations can be lifted")
        return PointConfiguration(field, [p.triple for p in self.points])

    def __repr__(self):
        return f"PointConfiguration({len(self)} points over {self.field!r})"

    # -- external interface -------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "field": self.field.to_dict(),
            "points": [[str(c) for c in p.coeffs] for p in self.points],
        }

    @staticmethod
    def from_dict(d: dict) -> "PointConfiguration":
        field = Field.from_dict(d["field"])
        pts = d["points"]
        if not isinstance(pts, list) or not pts:
            raise ValueError("configuration needs a nonempty list of points")
        return PointConfiguration(field, [[field.scalar(c) for c in p] for p in pts])


@dataclass(frozen=True)
class LineStats:
    """Complete incidence inventory of the lines spanned by a configuration.

    lines holds every line through at least two points together with the
    sorted indices of the incident points; the histogram counts lines by
    how many configuration points they carry.
    """

    lines: tuple
    histogram: dict

    @property
    def simple_count(self) -> int:
        return self.histogram.get(2, 0)

    def rich_count(self, k: int) -> int:
        return self.histogram.get(k, 0)

    @property
    def rich_counts(self) -> dict:
        return {k: v for k, v in self.histogram.items() if k >= 3}

    @property
    def max_richness(self) -> int:
        return max(self.histogram, default=0)

    def k_rich_lines(self, k: int):
        return [(ln, idx) for ln, idx in self.lines if len(idx) == k]

    def lines_through(self, point_index: int):
        return [(ln, idx) for ln, idx in self.lines if point_index in idx]

    def histogram_key(self) -> tuple:
        return tuple(sorted(self.histogram.items()))


def analyze_lines(Z: PointConfiguration) -> LineStats:
    """Every line through two or more points of Z, with incident indices.

    Each of the C(n, 2) pairs is joined once and the pairs that give the
    same line are pooled, so the index tuple of a line is exactly the set
    of points on it.  Lines come in the order of their smallest pair.  This
    inventory is where collinearity inside a configuration is decided:
    pencils, general position and the meeting of lines off Z are all read
    from it.
    """
    pts = Z.points
    pooled: dict[tuple, tuple] = {}
    for i, j in combinations(range(len(pts)), 2):
        ln = line_through(pts[i], pts[j])
        pooled.setdefault(ln.triple, (ln, set()))[1].update((i, j))
    # from a list: tuple() of a generator resizes its result, and each call
    # would leave one more tuple in CPython's per-size free lists
    lines = tuple([(ln, tuple(sorted(idx))) for ln, idx in pooled.values()])
    hist: dict[int, int] = {}
    for _, idx in lines:
        hist[len(idx)] = hist.get(len(idx), 0) + 1
    return LineStats(lines=lines, histogram=hist)


def dualize(Z: PointConfiguration) -> list[ProjectiveLine]:
    """Reinterpret each point [a,b,c] as the line a*x+b*y+c*z=0."""
    return [ProjectiveLine._stored(Z.field, p.triple) for p in Z.points]


def dual_points(lines, field: Field | None = None) -> PointConfiguration:
    """Reinterpret lines as points; inverse of dualize."""
    lines = list(lines)
    if field is None:
        if not lines:
            raise ValueError("cannot infer the field of an empty dual")
        field = lines[0].field
    return PointConfiguration(field, [ProjectivePoint(field, ln.coeffs) for ln in lines])


# -- projective transformations ------------------------------------------------


def mat3(field: Field, rows):
    return tuple(tuple(field.scalar(e) for e in row) for row in rows)


def mat3_det(rows):
    r = rows
    return (
        r[0][0] * (r[1][1] * r[2][2] - r[1][2] * r[2][1])
        - r[0][1] * (r[1][0] * r[2][2] - r[1][2] * r[2][0])
        + r[0][2] * (r[1][0] * r[2][1] - r[1][1] * r[2][0])
    )


def mat3_mul(A, B):
    return tuple(
        tuple(a[0] * B[0][j] + a[1] * B[1][j] + a[2] * B[2][j] for j in range(3)) for a in A
    )


def mat3_vec(A, v):
    return tuple(a[0] * v[0] + a[1] * v[1] + a[2] * v[2] for a in A)


def mat3_adjugate(A):
    # rows c2 x c3, c3 x c1, c1 x c2 of column cross products satisfy
    # adj(A) * A = det(A) * I
    cols = tuple(tuple(A[r][j] for r in range(3)) for j in range(3))
    return (
        _cross(cols[1], cols[2]),
        _cross(cols[2], cols[0]),
        _cross(cols[0], cols[1]),
    )


def apply_transform(T, Z: PointConfiguration) -> PointConfiguration:
    """Pointwise image of Z under an invertible 3x3 matrix."""
    T = mat3(Z.field, T)
    if mat3_det(T).is_zero():
        raise DegenerateInputError("transform matrix is singular")
    return PointConfiguration(
        Z.field, [ProjectivePoint(Z.field, mat3_vec(T, p.coeffs)) for p in Z.points]
    )


def _frame_matrix(quad):
    """Matrix sending the standard frame e1,e2,e3,e1+e2+e3 to the points with
    the four coordinate triples of quad (ints or Scalars)."""
    t1, t2, t3, t4 = quad
    A = tuple(zip(t1, t2, t3))
    if not mat3_det(A):
        raise DegenerateInputError("first three frame points are collinear")
    lam = mat3_vec(mat3_adjugate(A), t4)  # det * A^{-1} t4
    if not all(lam):
        raise DegenerateInputError("fourth frame point lies on a side of the triangle")
    return tuple(tuple(a[j] * lam[j] for j in range(3)) for a in A)


def frame_transform(src, dst):
    """The projective transformation carrying one ordered quadruple to another.

    Both quadruples must be in linearly general position; the matrix is
    unique up to a scalar, and this one is Md adj(Ms), Ms and Md the frame
    matrices of the coeffs of src and dst.  It is computed on the stored
    triples.  Over Q a stored triple is its coeffs times its leading
    coordinate; a frame matrix is linear in each of its four points and a
    3x3 adjugate is quadratic, so the product of the triples' matrices is
    divided by lead(dst) * lead(src)^2.  Over Q(zeta_n) the triples are
    the coeffs.
    """
    src = list(src)
    dst = list(dst)
    if len(src) != 4 or len(dst) != 4:
        raise ValueError("frame_transform needs two quadruples")
    field = src[0].field
    if any(p.field != field for p in src + dst):
        raise FieldMismatchError("frame points over different fields")
    s, t = [p.triple for p in src], [p.triple for p in dst]
    back = mat3_adjugate(_frame_matrix(s))
    T = mat3_mul(_frame_matrix(t), back)
    if field.degree != 1:
        return T
    den = prod(_lead(x) for x in t) * prod(_lead(x) for x in s) ** 2
    return tuple(tuple(field.from_integral(row, den)) for row in T)


def _general_quadruples(stats: LineStats, n: int) -> set:
    """The 4-subsets of range(n), as sorted tuples, no three of whose
    points share a line of the inventory."""
    rich = [set(idx) for _, idx in stats.lines if len(idx) > 2]
    return {q for q in combinations(range(n), 4) if all(len(r.intersection(q)) < 3 for r in rich)}


def projective_equivalent(Z1: PointConfiguration, Z2: PointConfiguration):
    """Whether some projective transformation maps the set Z1 onto the set Z2.

    Returns (verdict, witness matrix or None).
    """
    if Z1.field != Z2.field:
        raise FieldMismatchError("configurations over different fields")
    if len(Z1) != len(Z2):
        raise ValueError("equivalence needs configurations of equal size")
    stats1, stats2 = analyze_lines(Z1), analyze_lines(Z2)
    if stats1.histogram_key() != stats2.histogram_key():
        return False, None
    general1 = _general_quadruples(stats1, len(Z1))
    if not general1:
        # fewer than 4 points in general position on both sides or neither:
        # fall back to size <= 3 / collinear handling
        return _equivalent_degenerate(Z1, Z2, stats1)
    # frames are built from the stored triples; T sends each anchor point to
    # its image by construction, so only the other points are tested
    anchor = min(general1)
    general2 = _general_quadruples(stats2, len(Z2))
    back = mat3_adjugate(_frame_matrix([Z1[i].triple for i in anchor]))
    rest = [p.triple for i, p in enumerate(Z1.points) if i not in anchor]
    target = {p.triple for p in Z2.points}
    canonical = _canonical(Z1.field)
    for dst in permutations(range(len(Z2)), 4):
        if tuple(sorted(dst)) not in general2:
            continue
        T = mat3_mul(_frame_matrix([Z2[i].triple for i in dst]), back)
        if all(canonical(mat3_vec(T, t)) in target for t in rest):
            return True, frame_transform([Z1[i] for i in anchor], [Z2[i] for i in dst])
    return False, None


def _equivalent_degenerate(Z1, Z2, stats1):
    # no general-position quadruple in Z1, and the caller has matched the
    # line histograms; beyond two points and triangles (collinear sets need
    # cross-ratio classification) this is out of scope for the sets this
    # artifact studies
    if len(Z1) <= 2:
        return True, None
    if len(Z1) == 3 and stats1.max_richness == 2:
        # two triangles: with the points as the columns of A1 and A2,
        # T = A2 adj(A1) sends the i-th point of Z1 to det(A1) times that of Z2
        A1, A2 = (tuple(zip(*(p.coeffs for p in Z))) for Z in (Z1, Z2))
        T = mat3_mul(A2, mat3_adjugate(A1))
        if {ProjectivePoint(Z1.field, mat3_vec(T, p.coeffs)) for p in Z1} != Z2.point_set():
            raise ArithmeticError("triangle transform misses the target set")
        return True, T
    if stats1.max_richness == len(Z1):
        raise DegenerateInputError("equivalence of fully collinear sets is not supported")
    raise DegenerateInputError("equivalence without a general-position quadruple")
