"""Expected answers for every benchmark query, with where each comes from.

No answer here is produced by the code under test at run time.  The search
tables were fixed once on the untransformed height-1 points and are
re-derived in ``tests/test_bench_oracle.py`` by the benchmark's own integer
collinearity test and by an independent sympy rank computation.
"""

from __future__ import annotations

# source name -> provenance of the answer
PROVENANCE = {
    "no-4-rich-line": (
        "projective invariance: a projective transform preserves collinearity, "
        "so the subsets without a 4-rich line are those of the untransformed points"
    ),
    "search-negative": (
        "paper: a nine-point set with an unexpected quartic is projectively "
        "equivalent to the example configuration; this subset is not"
    ),
    "search-hit": (
        "paper: the example configuration carries an unexpected quartic; this "
        "subset is projectively equivalent to it (projective invariance)"
    ),
    "general-points": (
        "CHMN (arXiv 1602.02300): general points admit no unexpected curve; "
        "random points of height 1000 are general for r in {9, 10, 12}, d in {3, 4, 5}"
    ),
    "example-image": (
        "paper: the example configuration has an unexpected quartic; a "
        "projective image keeps it (projective invariance)"
    ),
    "dual-fermat-range": (
        "CHMN (arXiv 1602.02300): the dual Fermat configuration F_n has "
        "unexpected curves exactly in degrees n+2 .. 2n-3"
    ),
    "prop31": "paper, Proposition 3.1: family instances have no unexpected quartic",
    "prop33-case3": "paper, Proposition 3.3 (case 3): family instances have no unexpected quartic",
    "prop33-first": "paper, Proposition 3.3 (first case): family instances have no unexpected quartic",
    "excluded-pair": (
        "paper, Proposition 3.3: the excluded pair {a, b} = {-1, 1} rebuilds "
        "the example configuration, so it has the unexpected quartic"
    ),
}

# indices into itertools.combinations(range(13), 9) over
# workloads.height_one_points() of the 53 subsets without a line holding
# exactly four of the points; the other 662 pass the filter
NO_4_RICH_LINE = frozenset((
    154, 157, 166, 188, 233, 236, 237, 238, 240, 251, 252, 253, 271, 272,
    273, 274, 278, 358, 375, 390, 392, 495, 500, 504, 511, 514, 523, 529,
    531, 557, 560, 567, 570, 578, 616, 621, 622, 623, 624, 629, 630, 634,
    640, 645, 647, 649, 653, 655, 657, 705, 709, 713, 714,
))  # fmt: skip

# the 8 subsets projectively equivalent to the example configuration
SEARCH_HITS = frozenset((49, 91, 127, 208, 342, 383, 427, 436))


def fermat_range(n: int) -> list[int]:
    return list(range(n + 2, 2 * n - 2))


FERMAT_RANGES = {n: fermat_range(n) for n in (3, 4, 5, 6)}


def search_source(index: int) -> str:
    if index in NO_4_RICH_LINE:
        return "no-4-rich-line"
    return "search-hit" if index in SEARCH_HITS else "search-negative"


def search_verdict(index: int) -> tuple:
    """(passes the 4-rich-line filter, unexpected quartic, equivalent to the example)."""
    hit = index in SEARCH_HITS
    return (index not in NO_4_RICH_LINE, hit, hit)
