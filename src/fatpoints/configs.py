"""Constructors for the named point configurations and search generators.

Each parametrized family reproduces the coordinates of one coordinate
computation from the source material, with the same nondegeneracy
constraints; excluded parameter values are rejected with the violated
constraint named, so verification code can probe the boundaries
deliberately.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from math import comb

from .field import Field, QQ, Scalar, make_field, primitive_root
from .geom import (
    PointConfiguration,
    ProjectivePoint,
    analyze_lines,
    line_through,
    meet,
)


class FamilyDomainError(ValueError):
    """A family was instantiated at an excluded parameter value."""

    def __init__(self, constraint: str):
        super().__init__(f"excluded parameter value: {constraint}")
        self.constraint = constraint


def example_quartic_config(field: Field = QQ) -> PointConfiguration:
    """The nine-point configuration carrying the unique unexpected quartic.

    Four general points, the three diagonal points of the quadrilateral
    they span, and the two extra intersections on the line joining the
    second and third diagonal points.
    """
    pts = [
        (-1, 0, 1),
        (0, -1, 1),
        (1, 0, 1),
        (0, 1, 1),
        (0, 0, 1),
        (1, -1, 0),
        (1, 1, 0),
        (0, 1, 0),
        (1, 0, 0),
    ]
    return PointConfiguration(field, pts)


def example_quartic_variant(pair=(6, 7)) -> PointConfiguration:
    """Synthetic construction of the nine points, choosing which diagonal
    pair carries the extra line; the three choices are projectively
    equivalent."""
    if tuple(sorted(pair)) not in ((5, 6), (5, 7), (6, 7)):
        raise ValueError("pair must name two of the diagonal points 5, 6, 7")
    quad = [
        ProjectivePoint(QQ, (-1, 0, 1)),
        ProjectivePoint(QQ, (0, -1, 1)),
        ProjectivePoint(QQ, (1, 0, 1)),
        ProjectivePoint(QQ, (0, 1, 1)),
    ]
    z1, z2, z3, z4 = quad
    sides = {
        5: (line_through(z1, z3), line_through(z2, z4)),
        6: (line_through(z1, z2), line_through(z3, z4)),
        7: (line_through(z1, z4), line_through(z2, z3)),
    }
    diag = {k: meet(*sides[k]) for k in (5, 6, 7)}
    i, j = sorted(pair)
    (k,) = {5, 6, 7} - {i, j}
    extra = line_through(diag[i], diag[j])
    z8 = meet(extra, sides[k][1])
    z9 = meet(extra, sides[k][0])
    return PointConfiguration(QQ, quad + [diag[5], diag[6], diag[7], z8, z9])


def dual_fermat(n: int) -> PointConfiguration:
    """The 3n points dual to the lines of (x^n-y^n)(x^n-z^n)(y^n-z^n) = 0."""
    if n < 3:
        raise ValueError("Fermat configurations need n >= 3")
    field = make_field("cyclotomic", n)
    z = primitive_root(field)
    pts = []
    zk = field.one
    powers = []
    for _ in range(n):
        powers.append(zk)
        zk = zk * z
    for p in powers:
        pts.append((field.one, -p, field.zero))
    for p in powers:
        pts.append((field.one, field.zero, -p))
    for p in powers:
        pts.append((field.zero, field.one, -p))
    return PointConfiguration(field, pts)


# ---------------------------------------------------------------------------
# parametrized proof families
# ---------------------------------------------------------------------------


def _param_field(params, field):
    if field is not None:
        return field
    for v in params.values():
        if isinstance(v, Scalar):
            return v.field
    return QQ


def _w5_points(field, a):
    one, zero = field.one, field.zero
    return [
        (one, zero, zero),
        (zero, one, zero),
        (zero, zero, one),
        (one, one, one),
        (one, a, zero),
    ]


def _prop31_points(field, a, b):
    one, zero = field.one, field.zero
    return [
        (zero, zero, one),  # S
        (one, zero, zero),  # R1
        (zero, one, zero),  # R2
        (one, one, zero),  # R3
        (a, b, zero),  # R4
        (a - b, zero, one - b),  # Q1
        (zero, a - b, a - one),  # Q2
        (one, one, one),  # Q3
        (a, b, one),  # Q4
    ]


def _prop33_case3_points(field, a, b):
    one, zero = field.one, field.zero
    return [
        (one, zero, zero),  # R1
        (zero, one, zero),  # R2
        (one, a, zero),  # R3
        (one, b, zero),  # R4
        (one, zero, one),  # Q1
        (zero, one, one),  # Q2
        (one, one, one + one),  # Q3
        (zero, zero, one),  # S1
        (one, one, one),  # S2
    ]


def _prop33_first_points(field, a):
    one, zero = field.one, field.zero
    return [
        (zero, zero, one),  # R1
        (zero, one, zero),  # R2
        (zero, one, one),  # R3
        (zero, one - a, one),  # R4
        (one, one, one),  # S1
        (one, a, zero),  # S2
        (one, one, one - a),  # Q1
        (one, a, one),  # Q2
        (one, zero, zero),  # Q3
    ]


def _figure2_points(field, a):
    one, zero = field.one, field.zero
    return [
        (one, a, one),  # Z1
        (a, a, one),  # Z2
        (one, zero, zero),  # Z3
        (one, one, one),  # Z4
        (a, one, one),  # Z5
        (zero, one, zero),  # Z6
        (zero, zero, one),  # Z7
    ]


# family id -> (its parameters, the builder of its points from the field and
# the parameters' values, its excluded values as (test on those values,
# violated constraint) pairs in the order they are tested); example-quartic
# and fermat have constructors of their own and no excluded value
_FAMILIES = {
    "example-quartic": ((), None, ()),
    "fermat": (("n",), None, ()),
    "w5": (("a",), _w5_points, (
        (lambda a: a == 0, "w5 needs a != 0 (B5 would collide with B1)"),
        (lambda a: a == 1, "w5 needs a != 1 (B5 would put a second 3-rich line through B3 B4)"),
    )),
    "prop31": (("a", "b"), _prop31_points, (
        (lambda a, b: a == 0, "prop31 needs a != 0 (R4 degenerates)"),
        (lambda a, b: a == 1, "prop31 needs a != 1 (Q1/Q2 degenerate)"),
        (lambda a, b: b == 0, "prop31 needs b != 0 (R4 degenerates)"),
        (lambda a, b: b == 1, "prop31 needs b != 1 (Q1/Q2 degenerate)"),
        (lambda a, b: a == b, "prop31 needs a != b (Q1 and R4 degenerate)"),
    )),
    "prop33-case3": (("a", "b"), _prop33_case3_points, (
        (lambda a, b: (a, b) in ((-1, 1), (1, -1)),
         "prop33-case3 excludes {a,b} = {-1,1}: it rebuilds the unexpected-quartic configuration"),
        (lambda a, b: a == 0, "prop33-case3 needs a != 0 (R point collides with a frame point)"),
        (lambda a, b: a == 1, "prop33-case3 needs a != 1 (an R point lands on the "
                              "S1 S2 Q3 line, adding a second 4-rich line)"),
        (lambda a, b: b == 0, "prop33-case3 needs b != 0 (R point collides with a frame point)"),
        (lambda a, b: b == 1, "prop33-case3 needs b != 1 (an R point lands on the "
                              "S1 S2 Q3 line, adding a second 4-rich line)"),
        (lambda a, b: a == b, "prop33-case3 needs a != b (R3 = R4)"),
    )),
    "prop33-first": (("a",), _prop33_first_points, (
        (lambda a: a == 0, "prop33-first needs a != 0 (S2 = Q3)"),
        (lambda a: a == 1, "prop33-first needs a != 1 (R4 = R1, Q2 = S1)"),
    )),
    "figure2-cubic": (("a",), _figure2_points, (
        (lambda a: a == 0, "figure2-cubic needs a != 0 (Z2 = Z7)"),
        (lambda a: a == 1, "figure2-cubic needs a != 1 (Z1 = Z4)"),
    )),
}  # fmt: skip
FAMILY_IDS = tuple(_FAMILIES)


def family(family_id: str, params=None, field: Field | None = None) -> PointConfiguration:
    """Instantiate one of the named coordinate families at explicit scalars;
    every given parameter must make a scalar of the field, read or not."""
    if family_id not in _FAMILIES:
        raise ValueError(f"unknown family {family_id!r}")
    params = dict(params or {})
    names, points, exclusions = _FAMILIES[family_id]
    missing = [k for k in names if k not in params]
    if missing:
        raise ValueError(f"family {family_id!r} needs the parameter {missing[0]!r}")
    if family_id == "example-quartic":
        return example_quartic_config(field or QQ)
    if family_id == "fermat":
        return dual_fermat(int(params["n"]))
    f = _param_field(params, field)
    scalars = {k: f.scalar(v) for k, v in params.items()}
    values = [scalars[k] for k in names]
    for excluded, constraint in exclusions:
        if excluded(*values):
            raise FamilyDomainError(constraint)
    return PointConfiguration(f, points(f, *values))


# ---------------------------------------------------------------------------
# random and grid generators
# ---------------------------------------------------------------------------


def random_config(r: int, height: int, seed) -> PointConfiguration:
    """r distinct affine points with integer coordinates in [-height, height]."""
    if r < 1:
        raise ValueError("need at least one point")
    if r > (2 * height + 1) ** 2:
        raise ValueError(f"{r} distinct points do not fit in the box of height {height}")
    rng = random.Random(f"fatpoints:config:{seed}")
    pts: list[ProjectivePoint] = []
    seen = set()
    while len(pts) < r:
        x = rng.randint(-height, height)
        y = rng.randint(-height, height)
        p = ProjectivePoint(QQ, (x, y, 1))
        if p not in seen:
            seen.add(p)
            pts.append(p)
    return PointConfiguration(QQ, pts)


@dataclass(frozen=True)
class SearchSpace:
    """Stream of r-point configurations on the integer grid [0, n]^2.

    With limit None the stream enumerates every r-subset in lexicographic
    order; with a limit it draws that many constraint-satisfying
    configurations from a seeded uniform sample of the subsets.
    """

    n: int
    r: int
    constraint: str | None = None
    seed: int = 0
    limit: int | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("grid side must be at least 1")
        if self.r < 3:
            raise ValueError("configuration size must be at least 3")
        if self.r > (self.n + 1) ** 2:
            raise ValueError(f"{self.r} points do not fit on a grid of {(self.n + 1) ** 2}")
        if self.limit is not None and self.limit < 1:
            raise ValueError("search limit must be positive")


_CONSTRAINTS = {
    None: lambda Z: True,
    "4-rich-line": lambda Z: analyze_lines(Z).rich_count(4) >= 1,
}


def _unrank_subset(rank: int, n_items: int, r: int) -> list[int]:
    out = []
    x = 0
    for i in range(r):
        while True:
            rest = comb(n_items - 1 - x, r - 1 - i)
            if rank < rest:
                out.append(x)
                x += 1
                break
            rank -= rest
            x += 1
    return out


def grid_configs(space: SearchSpace):
    """Yield configurations from the search space, deterministically."""
    if space.constraint not in _CONSTRAINTS:
        raise ValueError(f"unknown constraint {space.constraint!r}")
    check = _CONSTRAINTS[space.constraint]
    side = space.n + 1
    grid = [
        ProjectivePoint(QQ, (x, y, 1))
        for x in range(side)
        for y in range(side)
    ]
    n_items = len(grid)
    if space.limit is None:
        for combo in itertools.combinations(range(n_items), space.r):
            Z = PointConfiguration(QQ, [grid[i] for i in combo])
            if check(Z):
                yield Z
        return
    total = comb(n_items, space.r)
    rng = random.Random(f"fatpoints:grid:{space.seed}")
    seen = set()
    yielded = 0
    attempts = 0
    max_attempts = max(200 * space.limit, 10000)
    while yielded < space.limit and attempts < max_attempts and len(seen) < total:
        attempts += 1
        rank = rng.randrange(total)
        if rank in seen:
            continue
        seen.add(rank)
        combo = _unrank_subset(rank, n_items, space.r)
        Z = PointConfiguration(QQ, [grid[i] for i in combo])
        if check(Z):
            yielded += 1
            yield Z
