"""Generic-point dimensions, unexpected-curve detection and splitting types.

"General point" has two realizations, and one routine, _sample_and_floor,
serves both.  The generic value of dim I(Z + jP)_d lies between two
bounds.  dim I(Z)_d bounds it from above, as does every sample, an
evaluation at an integer point, and the condition count bounds it from
below, since jP imposes at most C(j+1, 2) conditions on I(Z)_d.  Samples
are drawn only while the upper bound is above that floor, in either mode.
Where Z's rows and a j-fold point's fit in the columns, the first sample
always is, and a verdict starts with one full-rank test at prime 0 of Z
and that sample, the sample's rows first: full rank proves Z's rows
independent and the sample at the floor, which is then the value in
either mode, from one elimination that the next such test resumes after
the sample's rows, as the first sample is the same for every Z.  Only a
failed test ranks Z alone and then with each sample.
Sampled mode takes the least of a few independent samples: each
overestimates the generic value only on a proper closed locus, so the
minimum is the generic dimension except with vanishing probability, and
it certifies a "no unexpected curve" verdict outright.  Certified mode
proves the value: where the bounds meet, the floor is the value; only
where they stay apart, as at every positive verdict, does it place
P = [a, b, 1] with symbolic parameters and certify the generic rank of
its conditions on I(Z)_d (linsys.symbolic_conditions_matrix), by grid
evaluation on the triangle of integer points 0 <= a <= da, 0 <= b <= db,
a + b <= D, where da, db and D bound the minors' degrees in a, in b and
in total: a minor within those bounds that vanishes there is zero
(poly.symbolic_rank_bound).  The general point's C(j+1, 2) rows are its
partials of order j - 1, of degree d - j + 1 in (a, b), so D is at most
C(j+1, 2)(d - j + 1); the example's quartic at (j, d) = (3, 4) has
da = db = 9, D = 12 and 79 grid points.  At d = j + 1, the degree of
every verdict, the derivations of degree j tangent to the lines dual to
Z's points give a second bound from below once a sample P0 is drawn
(linsys.derivation_bound): each theta gives the form x . theta(P0 x x)
of I(Z + jP0)_d.  The larger lower bound caps the generic rank, so the
grid's sweep stops at the first point whose rank meets that ceiling, with
the certificate the full sweep would give; where the derivation bound
falls short of the value, the whole grid is swept.  The example's sweep
stops at its 12th point, and dual F5's at (6, 7) at its 41st of 926.

The splitting type (a_Z, b_Z) is computed operationally from the trace
m(j) = dim I(Z + jP)_(j+1):  a_Z is the least j with m(j) nonzero and
b_Z = |Z| - 1 - a_Z.  Balancedness (b_Z - a_Z <= 1) is the semistability
gate: balanced configurations admit no unexpected curve.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .field import Field
from .geom import PointConfiguration, ProjectivePoint
from .linsys import (
    FatPointScheme,
    conditions_matrix,
    derivation_bound,
    symbolic_conditions_matrix,
    system_basis,
    system_dimension,
)
from .poly import Form, _full_rank, symbolic_rank_bound


@dataclass(frozen=True)
class GeneralPointStrategy:
    """How to realize "for a general point P"."""

    mode: str = "sampled"
    samples: int = 3
    height: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("sampled", "certified"):
            raise ValueError(f"unknown strategy mode {self.mode!r}")
        if self.samples < 1:
            raise ValueError("need at least one sample")
        if self.height < 2:
            raise ValueError("height bound must be at least 2")

    def sample_point(self, field: Field, index: int, avoid=()) -> ProjectivePoint:
        """Deterministic affine sample [x, y, 1], independent per index; a
        ValueError when avoid covers the whole box of the height.

        The first draw of the seeded stream is memoized (_first_sample) and
        returned when it is off avoid, tested as avoid is given, so a
        sequence of points hashes none of them; else avoid is made a set
        and the stream is drawn afresh until a point is off it, so the point
        is the same either way."""
        tag = f"fatpoints:{self.seed}:{index}"
        h = self.height
        first = _first_sample(tag, h, field)
        if first not in avoid:
            return first
        avoid = set(avoid)
        if len(avoid) >= (2 * h + 1) ** 2:
            box = itertools.product(range(-h, h + 1), repeat=2)
            if all(ProjectivePoint(field, (x, y, 1)) in avoid for x, y in box):
                raise ValueError(f"every sample point of height {h} is a point to avoid")
        rng = random.Random(tag)
        while True:
            x = rng.randint(-h, h)
            y = rng.randint(-h, h)
            p = ProjectivePoint(field, (x, y, 1))
            if p not in avoid:
                return p


# keyed by the rng tag, which holds the strategy's seed and the sample's
# index, so any seed works; the bound holds the 66 first draws of one run of
# the paper suite, with room to spare
@lru_cache(maxsize=128)
def _first_sample(tag: str, h: int, field: Field) -> ProjectivePoint:
    """The first point [x, y, 1] of height h that the stream seeded by tag draws."""
    rng = random.Random(tag)
    x = rng.randint(-h, h)
    y = rng.randint(-h, h)
    return ProjectivePoint(field, (x, y, 1))


DEFAULT_STRATEGY = GeneralPointStrategy()


def _sample_and_floor(Z: PointConfiguration, j: int, d: int, strategy):
    """(Z's scheme, dim I(Z)_d, floor, samples, generic value) of I(Z + jP)_d
    for general P.

    floor = max(0, dim I(Z)_d - C(j+1, 2)) bounds every P from below; the
    least of dim I(Z)_d and the samples, from above.  Samples are drawn while
    that bound is above the floor; a sample below it is a wrong rank.  Where
    they meet, the floor is the value; else sampled mode returns the least
    sample, and certified mode proves it on the grid, dim I(Z)_d less the
    generic rank of P's conditions on I(Z)_d, also when no sample point of
    the height is off Z, where sampled mode raises.  At d = j + 1 with a
    sample drawn, the derivation bound at the first sample
    (linsys.derivation_bound), read at as many points as the least upper
    bound, is a lower bound too, so dim I(Z)_d less the larger of it and
    the floor is a proved ceiling on the generic rank, at which the grid's
    sweep stops (poly.symbolic_rank_bound); its certificate is the one the
    full sweep gives.

    When j >= 1 and Z's rows and the first sample P0's fit in the columns,
    X.condition_count() + C(j+1, 2) <= C(d+2, 2), dim I(Z)_d is at least
    C(j+1, 2), above the floor, so P0 is drawn whatever Z's rank is, and
    one full-rank test at prime 0 (poly._full_rank) of Z + jP0, with P0's
    rows first, comes before any rank: full rank, as nrows <= ncols, proves
    every row independent, Z's among them, so dim I(Z)_d is C(d+2, 2) less
    Z's rows and P0 gives the floor, the value, in either mode.  The test
    keeps its elimination in a slot of its own, so the next such test
    resumes after P0's rows and the points it shares with this one, however
    many plain eliminations came between.  A failed test proves nothing:
    Z is ranked alone, then Z + jP with P0 the first sample, as when the
    rows do not fit.  Without the fit rule a full rank would not prove
    Z's rows independent.
    """
    X = FatPointScheme.of(Z)
    certified = strategy.mode == "certified"

    def draw(i):
        """The i-th sample point, or None in certified mode when no sample
        point of the height is off Z."""
        try:
            return strategy.sample_point(Z.field, i, Z.points)
        except ValueError:
            if not certified:
                raise
            return None

    ncols, rows = comb(d + 2, 2), X.condition_count() + comb(j + 1, 2)
    fits = j >= 1 and rows <= ncols
    if fits:
        first = draw(0)
        if first is not None and _full_rank(conditions_matrix(X.lead(first, j), d), (ncols, "lead")):
            floor = ncols - rows
            return X, floor + comb(j + 1, 2), floor, [(first, floor)], floor
    dim_z = system_dimension(X, d)
    floor = max(0, dim_z - comb(j + 1, 2))
    low, samples = dim_z, []
    for i in range(strategy.samples):
        if low == floor:
            break
        P = first if fits and i == 0 else draw(i)
        if P is None:
            break
        dim = system_dimension(X.plus(P, j), d)
        if dim < floor:
            raise AssertionError(f"a sample dimension {dim} is below the lower bound {floor}")
        samples.append((P, dim))
        low = min(low, dim)
    if not certified or low == floor:
        return X, dim_z, floor, samples, low
    bound = floor
    if d == j + 1 and samples:
        bound = max(floor, derivation_bound(X, j, samples[0][0], low))
    cert = symbolic_rank_bound(symbolic_conditions_matrix(X, j, d), dim_z - bound)
    return X, dim_z, floor, samples, dim_z - cert.rank


def generic_dim(Z: PointConfiguration, j: int, d: int, strategy=DEFAULT_STRATEGY) -> int:
    """The generic value of dim I(Z + jP)_d: certified, or the sampled minimum.

    m(j), the splitting type and the semistability gate all take their
    value here, from _sample_and_floor.
    """
    if j < 0:
        raise ValueError("multiplicity must be nonnegative")
    return _sample_and_floor(Z, j, d, strategy)[4]


def multiplicity_dim(Z: PointConfiguration, j: int, strategy=DEFAULT_STRATEGY) -> int:
    """m(j): the generic value of dim I(Z + jP)_(j+1)."""
    return generic_dim(Z, j, j + 1, strategy)


@dataclass(frozen=True)
class SplittingType:
    """Operational splitting type with its raw m(j) trace."""

    a: int
    b: int
    m_values: tuple
    balanced: bool

    def to_dict(self) -> dict:
        return {
            "aZ": self.a,
            "bZ": self.b,
            "m": list(self.m_values),
            "balanced": self.balanced,
        }


def _split(Z: PointConfiguration, ms) -> tuple[int, int, bool]:
    """(a_Z, b_Z, balanced) from the trace m(0), m(1), ...; ms is read only
    up to its first nonzero value, which m(|Z|-1) always is."""
    a = next(j for j, m in enumerate(ms) if m)
    b = len(Z) - 1 - a
    return a, b, b - a <= 1


def splitting_type(Z: PointConfiguration, strategy=DEFAULT_STRATEGY) -> SplittingType:
    """Splitting type (a_Z, b_Z) from the full m(j) trace, j = 0 .. |Z|-1."""
    if len(Z) < 2:
        raise ValueError("splitting type needs at least two points")
    ms = tuple(multiplicity_dim(Z, j, strategy) for j in range(len(Z)))
    a, b, balanced = _split(Z, ms)
    return SplittingType(a=a, b=b, m_values=ms, balanced=balanced)


def is_semistable_gate(Z: PointConfiguration, strategy=DEFAULT_STRATEGY) -> str:
    """'balanced' or 'unbalanced'; balanced blocks unexpected curves.

    Only a_Z is needed, so the m(j) scan stops at the first nonzero value.
    """
    if not len(Z):
        raise ValueError("the semistability gate needs at least one point")
    _, _, balanced = _split(Z, (multiplicity_dim(Z, j, strategy) for j in range(len(Z))))
    return "balanced" if balanced else "unbalanced"


@dataclass(frozen=True)
class UnexpectedCurveReport:
    """Verdict of the strict unexpected-curve inequality for one degree."""

    degree: int
    dim_z: int
    generic_dim: int
    threshold: int
    unexpected: bool
    certified: bool
    witness: Form | None
    samples: tuple

    def to_dict(self) -> dict:
        d = {
            "degree": self.degree,
            "dimZ": self.dim_z,
            "genericDim": self.generic_dim,
            "threshold": self.threshold,
            "unexpected": self.unexpected,
            "certified": self.certified,
            "samples": [
                {"point": [str(c) for c in p.coeffs], "dim": dim}
                for p, dim in self.samples
            ],
        }
        if self.witness is not None:
            d["witness"] = [str(c) for c in self.witness.coeffs]
        return d


def detect_unexpected(
    Z: PointConfiguration, d: int, strategy=DEFAULT_STRATEGY
) -> UnexpectedCurveReport:
    """Does Z admit an unexpected curve of degree d?

    Tests dim I(Z + (d-1)P)_d > max(dim I(Z)_d - C(d,2), 0) for general P.
    The threshold is the floor of _sample_and_floor at j = d - 1, so the
    report lists the samples drawn up to the first that meets it, a
    negative, and none when dim I(Z)_d already does.  Sampled mode takes
    the least sample as the generic dimension; certified mode proves a
    negative at the threshold, and a positive, or a Z that leaves no sample
    point, on the grid, whose sweep stops at the ceiling that the tangent
    derivations prove (_sample_and_floor).  A positive's witness is a
    sample's kernel, read from that sample's rank certificate where its rank
    dropped.
    """
    if d < 2:
        raise ValueError("unexpected curves need degree at least 2")
    X, dim_z, threshold, samples, generic = _sample_and_floor(Z, d - 1, d, strategy)
    unexpected = generic > threshold
    witness = None
    if unexpected:
        for P, dim in samples:
            if dim == generic:
                witness = system_basis(X.plus(P, d - 1), d)[0]
                break
    return UnexpectedCurveReport(
        degree=d,
        dim_z=dim_z,
        generic_dim=generic,
        threshold=threshold,
        unexpected=unexpected,
        certified=(strategy.mode == "certified"),
        witness=witness,
        samples=tuple(samples),
    )


def fermat_degrees(n: int) -> range:
    """The degrees [3, 2n - 3] a range scan of the dual Fermat F_n tests."""
    return range(3, 2 * n - 2)


def fermat_unexpected_range(n: int, strategy=DEFAULT_STRATEGY) -> list[int]:
    """Degrees d in fermat_degrees(n) where the dual Fermat F_n has
    unexpected curves."""
    from .configs import dual_fermat

    if n < 3:
        raise ValueError("Fermat configurations need n >= 3")
    Z = dual_fermat(n)
    out = []
    for d in fermat_degrees(n):
        if detect_unexpected(Z, d, strategy).unexpected:
            out.append(d)
    return out
