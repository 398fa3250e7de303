"""Seeded inputs, queries and verdict checks for the four workloads.

Every function here takes the imported ``fatpoints`` package as ``fp`` and
calls the library through its module attributes at call time, so the
tracer's wrappers see every call.  The same seed always gives the same
inputs; ``fingerprint`` hashes them.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

import answers

WORKLOADS = ("search", "detect", "cyclotomic", "certify")

# detect: one query in eight is a positive; the negatives cycle through
# every (r, d) pair so each pass has the same mix whatever the seed
DETECT_QUERIES = 400
DETECT_SHAPES = tuple(itertools.product((9, 10, 12), (3, 4, 5)))
DETECT_HEIGHT = 1000

# certify: per family, one draw with integer parameters and one with a
# non-integer parameter, from numerators and denominators of this size
PARAM_NUMERATORS = (-6, -5, -4, -3, -2, 2, 3, 4, 5, 6)
PARAM_DENOMINATORS = (2, 3)
# a seeded transform is P * MIX * Q with P, Q seeded signed permutations:
# Q permutes the height-1 points among themselves and P only moves signs,
# so every seed's search has the same coordinate sizes
MIX = ((2, 1, 0), (-1, 1, 1), (1, -2, 1))

# every general point the library samples has both affine coordinates in
# this absolute range, so each seed asks for work of the same size
SAMPLE_BAND = (500, 1000)


@dataclass(frozen=True)
class Query:
    """One top-level question with its known answer.

    kind selects the library call; config is a PointConfiguration (None for
    a Fermat range scan, which builds its own); source names the row of
    answers.PROVENANCE that the expected verdict comes from.
    """

    kind: str
    label: str
    config: object
    degree: int
    expected: object
    source: str


@dataclass
class Inputs:
    """Everything a workload's timed phase needs, generated from the seed."""

    workload: str
    seed: int
    queries: list
    strategy: object
    example: object

    def fingerprint(self) -> str:
        h = hashlib.sha256()
        h.update(f"{self.workload}|{self.seed}|{self.strategy!r}\n".encode())
        for q in self.queries:
            pts = "" if q.config is None else ";".join(repr(p) for p in q.config.points)
            h.update(f"{q.kind}|{q.label}|{q.degree}|{q.expected!r}|{q.source}|{pts}\n".encode())
        return h.hexdigest()


def _in_band(point) -> bool:
    x, y, z = (c.as_fraction() for c in point.coeffs)
    lo, hi = SAMPLE_BAND
    return all(lo <= abs(v / z) <= hi for v in (x, y))


def banded_strategy(fp, seed: int, mode: str = "sampled"):
    """The first strategy of a seeded sequence whose sample points all lie
    in SAMPLE_BAND (about one seed in 64 qualifies)."""
    for k in itertools.count():
        strategy = fp.GeneralPointStrategy(mode=mode, seed=seed * 10**6 + k)
        if all(_in_band(strategy.sample_point(fp.QQ, i)) for i in range(strategy.samples)):
            return strategy


def height_one_points():
    """The 13 points of P^2(Q) with coordinates in {-1, 0, 1}, first
    nonzero coordinate 1, in lexicographic order of the triples."""
    out = []
    for t in itertools.product((-1, 0, 1), repeat=3):
        nz = [c for c in t if c]
        if nz and nz[0] == 1:
            out.append(t)
    return out


def _signed_permutation(rng):
    perm = rng.sample(range(3), 3)
    return tuple(
        tuple(rng.choice((-1, 1)) if j == perm[i] else 0 for j in range(3)) for i in range(3)
    )


def _matmul(a, b):
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3)) for i in range(3))


def random_transform(rng):
    """An invertible 3x3 integer matrix of the same size for every seed."""
    return _matmul(_signed_permutation(rng), _matmul(MIX, _signed_permutation(rng)))


def transform_points(m, triples):
    return [tuple(sum(m[i][k] * p[k] for k in range(3)) for i in range(3)) for p in triples]


EXAMPLE_TRIPLES = (
    (-1, 0, 1), (0, -1, 1), (1, 0, 1), (0, 1, 1), (0, 0, 1),
    (1, -1, 0), (1, 1, 0), (0, 1, 0), (1, 0, 0),
)  # fmt: skip


def _example_image(fp, rng):
    triples = transform_points(random_transform(rng), EXAMPLE_TRIPLES)
    rng.shuffle(triples)
    return fp.PointConfiguration(fp.QQ, triples)


def _search(fp, seed):
    rng = random.Random(f"perfbench:search:{seed}")
    images = transform_points(random_transform(rng), height_one_points())
    points = [fp.ProjectivePoint(fp.QQ, t) for t in images]
    queries = []
    for i, combo in enumerate(itertools.combinations(range(len(points)), 9)):
        Z = fp.PointConfiguration(fp.QQ, [points[k] for k in combo])
        queries.append(
            Query("search", str(i), Z, 4, answers.search_verdict(i), answers.search_source(i))
        )
    return queries, banded_strategy(fp, seed)


def _detect(fp, seed):
    rng = random.Random(f"perfbench:detect:{seed}")
    queries = []
    negatives = 0
    for i in range(DETECT_QUERIES):
        if i % 8 == 7:
            Z = _example_image(fp, rng)
            queries.append(Query("detect", f"example-{i}", Z, 4, True, "example-image"))
            continue
        r, d = DETECT_SHAPES[negatives % len(DETECT_SHAPES)]
        negatives += 1
        Z = fp.configs.random_config(r, DETECT_HEIGHT, ("perfbench", seed, i))
        queries.append(Query("detect", f"random-{r}-{i}", Z, d, False, "general-points"))
    return queries, banded_strategy(fp, seed)


def _cyclotomic(fp, seed):
    queries = []
    for n in answers.FERMAT_RANGES:
        fp.make_field("cyclotomic", n)
        queries.append(
            Query("range", f"F{n}", None, n, list(answers.FERMAT_RANGES[n]), "dual-fermat-range")
        )
    return queries, banded_strategy(fp, seed)


def _family_instance(fp, rng, family_id, integral):
    """Seeded parameters from the family's domain; excluded values redrawn.
    Unless integral, the first parameter is a fraction in lowest terms
    with denominator 2 or 3."""
    names = ("a",) if family_id == "prop33-first" else ("a", "b")
    while True:
        params = {k: Fraction(rng.choice(PARAM_NUMERATORS)) for k in names}
        if not integral:
            q = rng.choice(PARAM_DENOMINATORS)
            params["a"] = Fraction(rng.choice([n for n in PARAM_NUMERATORS if n % q]), q)
        try:
            return params, fp.configs.family(family_id, params)
        except fp.FamilyDomainError:
            continue


def excluded_pair_config(fp):
    """prop33-case3 at the excluded pair (a, b) = (-1, 1), which the family
    constructor refuses because it rebuilds the example configuration."""
    a, b = -1, 1
    triples = [
        (1, 0, 0), (0, 1, 0), (1, a, 0), (1, b, 0),
        (1, 0, 1), (0, 1, 1), (1, 1, 2), (0, 0, 1), (1, 1, 1),
    ]  # fmt: skip
    return fp.PointConfiguration(fp.QQ, triples)


def _certify(fp, seed):
    rng = random.Random(f"perfbench:certify:{seed}")
    queries = []
    for family_id in ("prop31", "prop33-case3", "prop33-first"):
        for integral in (True, False):
            params, Z = _family_instance(fp, rng, family_id, integral)
            label = family_id + "".join(f" {k}={v}" for k, v in params.items())
            queries.append(Query("certify", label, Z, 4, False, family_id))
    zeta6 = fp.primitive_root(fp.make_field("cyclotomic", 6))
    Z = fp.configs.family("prop33-first", {"a": zeta6})
    queries.append(Query("certify", "prop33-first a=zeta_6", Z, 4, False, "prop33-first"))
    queries.append(Query("certify", "excluded-pair", excluded_pair_config(fp), 4, True, "excluded-pair"))
    queries.append(Query("certify", "example-image", _example_image(fp, rng), 4, True, "example-image"))
    F3 = fp.configs.dual_fermat(3)
    for d in (2, 3, 4):
        queries.append(Query("certify", f"F3 d={d}", F3, d, False, "dual-fermat-range"))
    return queries, banded_strategy(fp, seed, "certified")


_GENERATORS = {"search": _search, "detect": _detect, "cyclotomic": _cyclotomic, "certify": _certify}

# the cheapest query of each workload serves as the untimed warm-up
WARMUP_INDEX = {"search": 0, "detect": 0, "cyclotomic": 0, "certify": -3}


def make_inputs(fp, workload: str, seed: int) -> Inputs:
    queries, strategy = _GENERATORS[workload](fp, seed)
    return Inputs(workload, seed, queries, strategy, fp.configs.example_quartic_config())


def run_query(fp, inputs: Inputs, q: Query):
    """Answer one query through the public API; returns the verdict."""
    if q.kind == "search":
        if fp.geom.analyze_lines(q.config).rich_count(4) < 1:
            return (False, False, False)
        rep = fp.unexpected.detect_unexpected(q.config, q.degree, inputs.strategy)
        if not rep.unexpected:
            return (True, False, False)
        equivalent, _ = fp.geom.projective_equivalent(q.config, inputs.example)
        return (True, True, equivalent)
    if q.kind == "range":
        return fp.unexpected.fermat_unexpected_range(q.degree, inputs.strategy)
    return fp.unexpected.detect_unexpected(q.config, q.degree, inputs.strategy).unexpected
