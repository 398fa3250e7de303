"""Projective points, lines, incidence statistics, duality and equivalence.

Points and lines of P^2 are stored as normalized coordinate triples (the
first nonzero coordinate is scaled to 1), so equality is plain tuple
equality.  Configurations are ordered lists of distinct points; incidence
statistics and equivalence treat them as sets.

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
from itertools import combinations, permutations

from .field import Field, FieldMismatchError, Scalar


class DegenerateInputError(ValueError):
    """Geometric precondition broken (equal points, singular transform...)."""


def _normalize(field: Field, coeffs) -> tuple[Scalar, ...]:
    coords = tuple(field.scalar(c) for c in coeffs)
    if len(coords) != 3:
        raise ValueError("homogeneous triples have three coordinates")
    for c in coords:
        if c:
            inv = c.inverse()
            return tuple(x * inv for x in coords)
    raise DegenerateInputError("all-zero homogeneous triple")


class ProjectivePoint:
    """Point of P^2 with a canonical (first nonzero = 1) representative."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs):
        self.field = field
        self.coeffs = _normalize(field, coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, ProjectivePoint)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash(("pt", self.field, self.coeffs))

    def __repr__(self):
        return "[" + ", ".join(str(c) for c in self.coeffs) + "]"


class ProjectiveLine:
    """Line a*x + b*y + c*z = 0, normalized like a point."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs):
        self.field = field
        self.coeffs = _normalize(field, coeffs)

    def contains(self, p: ProjectivePoint) -> bool:
        s = self.field.zero
        for a, x in zip(self.coeffs, p.coeffs):
            s = s + a * x
        return s.is_zero()

    def __eq__(self, other):
        return (
            isinstance(other, ProjectiveLine)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash(("ln", self.field, self.coeffs))

    def __repr__(self):
        return "<" + ", ".join(str(c) for c in self.coeffs) + ">"


def _cross(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def line_through(p: ProjectivePoint, q: ProjectivePoint) -> ProjectiveLine:
    """The unique line joining two distinct points."""
    if p.field != q.field:
        raise FieldMismatchError("points over different fields")
    if p == q:
        raise DegenerateInputError("line_through needs two distinct points")
    return ProjectiveLine(p.field, _cross(p.coeffs, q.coeffs))


def meet(l1: ProjectiveLine, l2: ProjectiveLine) -> ProjectivePoint:
    """The unique common point of two distinct lines."""
    if l1.field != l2.field:
        raise FieldMismatchError("lines over different fields")
    if l1 == l2:
        raise DegenerateInputError("meet needs two distinct lines")
    return ProjectivePoint(l1.field, _cross(l1.coeffs, l2.coeffs))


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
        return PointConfiguration(
            field,
            [[field.scalar(c.as_fraction()) for c in p.coeffs] for p in self.points],
        )

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
    pooled: dict[tuple, tuple] = {}
    for i, j in combinations(range(len(Z)), 2):
        ln = line_through(Z[i], Z[j])
        pooled.setdefault(ln.coeffs, (ln, set()))[1].update((i, j))
    lines = tuple((ln, tuple(sorted(idx))) for ln, idx in pooled.values())
    hist: dict[int, int] = {}
    for _, idx in lines:
        hist[len(idx)] = hist.get(len(idx), 0) + 1
    return LineStats(lines=lines, histogram=hist)


def dualize(Z: PointConfiguration) -> list[ProjectiveLine]:
    """Reinterpret each point [a,b,c] as the line a*x+b*y+c*z=0."""
    return [ProjectiveLine(Z.field, p.coeffs) for p in Z.points]


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
        tuple(sum((A[i][k] * B[k][j] for k in range(1, 3)), A[i][0] * B[0][j]) for j in range(3))
        for i in range(3)
    )


def mat3_vec(A, v):
    return tuple(
        sum((A[i][k] * v[k] for k in range(1, 3)), A[i][0] * v[0]) for i in range(3)
    )


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
    """Matrix sending the standard frame e1,e2,e3,e1+e2+e3 to the quadruple."""
    p1, p2, p3, p4 = quad
    field = p1.field
    cols = [p.coeffs for p in (p1, p2, p3)]
    A = tuple(tuple(cols[j][i] for j in range(3)) for i in range(3))
    det = mat3_det(A)
    if det.is_zero():
        raise DegenerateInputError("first three frame points are collinear")
    lam = mat3_vec(mat3_adjugate(A), p4.coeffs)  # det * A^{-1} p4
    if any(not l for l in lam):
        raise DegenerateInputError("fourth frame point lies on a side of the triangle")
    return tuple(tuple(A[i][j] * lam[j] for j in range(3)) for i in range(3))


def frame_transform(src, dst):
    """The projective transformation carrying one ordered quadruple to another.

    Both quadruples must be in linearly general position; the matrix is
    unique up to a scalar.
    """
    src = list(src)
    dst = list(dst)
    if len(src) != 4 or len(dst) != 4:
        raise ValueError("frame_transform needs two quadruples")
    Ms = _frame_matrix(src)
    Md = _frame_matrix(dst)
    return mat3_mul(Md, mat3_adjugate(Ms))


def in_general_position(points) -> bool:
    """No three of the given points collinear."""
    pts = list(points)
    n = len(pts)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                d = mat3_det((pts[i].coeffs, pts[j].coeffs, pts[k].coeffs))
                if d.is_zero():
                    return False
    return True


def _general_quadruple(stats: LineStats, quad) -> bool:
    """No three of the indexed points share a line of the inventory."""
    quad = set(quad)
    return all(len(quad.intersection(idx)) < 3 for _, idx in stats.lines if len(idx) > 2)


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
    quads = combinations(range(len(Z1)), 4)
    anchor = next((q for q in quads if _general_quadruple(stats1, q)), None)
    if anchor is None:
        # fewer than 4 points in general position on both sides or neither:
        # fall back to size <= 3 / collinear handling
        return _equivalent_degenerate(Z1, Z2, stats1)
    src = [Z1[i] for i in anchor]
    target = Z2.point_set()
    for dst in permutations(range(len(Z2)), 4):
        if not _general_quadruple(stats2, dst):
            continue
        T = frame_transform(src, [Z2[i] for i in dst])
        if _maps_onto(T, Z1, target):
            return True, T
    return False, None


def _maps_onto(T, Z1: PointConfiguration, target: frozenset) -> bool:
    return all(ProjectivePoint(Z1.field, mat3_vec(T, p.coeffs)) in target for p in Z1.points)


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
        if not _maps_onto(T, Z1, Z2.point_set()):
            raise ArithmeticError("triangle transform misses the target set")
        return True, T
    if stats1.max_richness == len(Z1):
        raise DegenerateInputError("equivalence of fully collinear sets is not supported")
    raise DegenerateInputError("equivalence without a general-position quadruple")
