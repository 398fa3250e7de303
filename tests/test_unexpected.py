"""Generic dimensions, splitting types, the semistability gate, detection."""

import itertools
import random
import sys
import threading
from fractions import Fraction

import pytest

import fatpoints.linsys as linsys
import fatpoints.poly as poly
import fatpoints.unexpected as unexpected
import fatpoints.verify as verify
from fatpoints import (
    DEFAULT_STRATEGY,
    FatPointScheme,
    GeneralPointStrategy,
    PointConfiguration,
    ProjectivePoint,
    QQ,
    analyze_lines,
    apply_transform,
    conditions_matrix,
    detect_unexpected,
    dual_fermat,
    example_quartic_config,
    family,
    fermat_unexpected_range,
    exact_rank,
    generic_dim,
    is_semistable_gate,
    make_field,
    multiplicity_dim,
    nullspace_basis,
    primitive_root,
    projective_equivalent,
    random_config,
    splitting_type,
)
from fatpoints.geom import mat3_det
from fatpoints.linsys import system_dimension


def test_multiplicity_dim_examples():
    W5 = family("w5", {"a": 2})
    assert multiplicity_dim(W5, 1) == 0
    assert multiplicity_dim(W5, 2) == 2
    # three non-collinear points admit no common line
    Z = PointConfiguration(QQ, [(0, 0, 1), (1, 0, 1), (0, 1, 1)])
    assert multiplicity_dim(Z, 0) == 0
    assert multiplicity_dim(example_quartic_config(), 3) == 1


def test_generic_dim_modes_and_validation():
    Z = example_quartic_config()
    certified = GeneralPointStrategy(mode="certified")
    # the unexpected quartic: a triple point through the nine points at d = 4
    assert generic_dim(Z, 3, 4) == generic_dim(Z, 3, 4, certified) == 1
    assert generic_dim(Z, 2, 4) == generic_dim(Z, 2, 4, certified) == 3
    assert generic_dim(Z, 0, 4) == 6  # j = 0 is dim I(Z)_4 itself
    with pytest.raises(ValueError):
        generic_dim(Z, -1, 4)


def test_splitting_type_examples():
    st = splitting_type(family("w5", {"a": 2}))
    assert (st.a, st.b) == (2, 2)
    assert st.balanced
    st = splitting_type(example_quartic_config())
    assert (st.a, st.b) == (3, 5)
    assert not st.balanced
    assert st.m_values[3] == 1
    four = PointConfiguration(QQ, [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 2, 1)])
    st = splitting_type(four)
    assert st.a + st.b == 3


def test_splitting_trace_length_and_sum():
    rng = random.Random("split")
    for t in range(4):
        Z = random_config(rng.randint(3, 6), 20, ("split", t))
        st = splitting_type(Z)
        assert len(st.m_values) == len(Z)
        assert st.a + st.b == len(Z) - 1
        assert st.a <= st.b


def test_semistable_gate():
    assert is_semistable_gate(family("w5", {"a": 2})) == "balanced"
    assert is_semistable_gate(example_quartic_config()) == "unbalanced"
    assert is_semistable_gate(dual_fermat(3)) == "balanced"
    assert is_semistable_gate(PointConfiguration(QQ, [(1, 2, 3)])) == "balanced"
    with pytest.raises(ValueError):
        is_semistable_gate(PointConfiguration(QQ, []))
    certified = GeneralPointStrategy(mode="certified")
    assert is_semistable_gate(example_quartic_config(), certified) == "unbalanced"
    assert is_semistable_gate(family("w5", {"a": 2}), certified) == "balanced"


def test_gate_stops_at_the_first_nonzero_m(monkeypatch):
    calls = []
    m = unexpected.multiplicity_dim

    def counted(Z, j, strategy):
        calls.append(j)
        return m(Z, j, strategy)

    monkeypatch.setattr(unexpected, "multiplicity_dim", counted)
    for Z, a, verdict in (
        (family("w5", {"a": 2}), 2, "balanced"),
        (example_quartic_config(), 3, "unbalanced"),
    ):
        calls.clear()
        assert is_semistable_gate(Z) == verdict
        assert calls == list(range(a + 1))
        st = splitting_type(Z)
        assert (st.a, st.balanced) == (a, verdict == "balanced")


@pytest.mark.parametrize("n", [1, 2])
def test_degree_one_cyclotomic_fields_match_the_rationals(n):
    field = make_field("cyclotomic", n)
    Zq = example_quartic_config()
    Z = Zq.lift(field)
    assert Z.field == field and field.degree == 1

    def text(vectors):
        return [[str(c) for c in v] for v in vectors]

    for j in (None, 2, 3):
        if j is None:
            Xq, X = FatPointScheme.of(Zq), FatPointScheme.of(Z)
        else:
            Xq = FatPointScheme.of(Zq, (ProjectivePoint(QQ, (2, -3, 1)), j))
            X = FatPointScheme.of(Z, (ProjectivePoint(field, (2, -3, 1)), j))
        Mq, M = conditions_matrix(Xq, 4), conditions_matrix(X, 4)
        assert M.ring == field
        assert exact_rank(M) == exact_rank(Mq) == 15 - system_dimension(X, 4)
        assert system_dimension(X, 4) == system_dimension(Xq, 4)
        assert text(nullspace_basis(M)) == text(nullspace_basis(Mq))
    for strategy in (GeneralPointStrategy(), GeneralPointStrategy(mode="certified")):
        rep = detect_unexpected(Z, 4, strategy)
        assert rep.unexpected
        assert rep.to_dict() == detect_unexpected(Zq, 4, strategy).to_dict()
    assert [(text([ln.coeffs]), idx) for ln, idx in analyze_lines(Z).lines] == [
        (text([ln.coeffs]), idx) for ln, idx in analyze_lines(Zq).lines
    ]


def test_gate_soundness_on_corpus():
    # balanced configurations admit no unexpected curve in 2 <= d <= |Z|-2
    corpus = [family("w5", {"a": a}) for a in (2, 3, -1)]
    corpus.append(dual_fermat(3))
    for Z in corpus:
        if is_semistable_gate(Z) != "balanced":
            continue
        for d in range(2, len(Z) - 1):
            assert not detect_unexpected(Z, d).unexpected, (len(Z), d)


def test_detect_unexpected_example():
    rep = detect_unexpected(example_quartic_config(), 4)
    assert rep.unexpected
    assert rep.generic_dim == 1
    assert rep.threshold == 0
    assert rep.dim_z == 6
    assert rep.witness is not None
    assert not rep.certified


def test_a_positive_builds_one_scheme(monkeypatch):
    # the samples and the witness extend Z's scheme by one fat point each
    # (FatPointScheme.plus), so Z's points are normalized once per verdict
    built = [0]
    init = FatPointScheme.__init__

    def counted(self, *args):
        built[0] += 1
        init(self, *args)

    monkeypatch.setattr(FatPointScheme, "__init__", counted)
    rep = detect_unexpected(example_quartic_config(), 4)
    assert rep.unexpected and rep.witness is not None
    assert built[0] == 1


def test_witness_satisfies_all_vanishing_conditions():
    from fatpoints import evaluate, partial_derivative

    Z = example_quartic_config()
    rep = detect_unexpected(Z, 4)
    w = rep.witness
    # simple vanishing on Z
    for p in Z.points:
        assert evaluate(w, p.coeffs).is_zero()
    # triple-point conditions at the sample attaining the generic dimension
    P = next(p for p, dim in rep.samples if dim == rep.generic_dim)
    for au in range(3):
        for av in range(3 - au):
            g = w
            for _ in range(au):
                g = partial_derivative(g, "x")
            for _ in range(av):
                g = partial_derivative(g, "y")
            assert evaluate(g, P.coeffs).is_zero()


def test_detect_unexpected_random_and_fermat():
    for i in range(5):
        Z = random_config(9, 500, ("detect", i))
        assert not detect_unexpected(Z, 4).unexpected
    assert not detect_unexpected(dual_fermat(3), 4).unexpected
    with pytest.raises(ValueError):
        detect_unexpected(example_quartic_config(), 1)


def _count_certificates(monkeypatch):
    calls = [0]
    certify = poly._certify

    def counted(*args):
        calls[0] += 1
        return certify(*args)

    monkeypatch.setattr(poly, "_certify", counted)
    return calls


def test_full_rank_mod_p_leaves_negatives_to_residues(monkeypatch):
    calls = _count_certificates(monkeypatch)
    for r, d in ((9, 3), (10, 4), (12, 5)):
        Z = random_config(r, 1000, ("modular", r))
        assert not detect_unexpected(Z, d).unexpected
    # every rank was full mod p, so no certificate ran
    assert calls[0] == 0


def test_rank_drops_of_the_example_share_certificates(monkeypatch):
    calls = _count_certificates(monkeypatch)
    kernels = [0]
    nullspace = linsys.nullspace_basis

    def counted(M):
        kernels[0] += 1
        return nullspace(M)

    monkeypatch.setattr(linsys, "nullspace_basis", counted)
    first = detect_unexpected(example_quartic_config(), 4)
    assert first.unexpected and len(first.samples) == 3
    # dim I(Z)_4 has full rank mod p; each of the three samples drops rank
    # (dimension 1, expected 0), and the witness, still asked of
    # nullspace_basis, is the first sample's certificate
    assert (calls[0], kernels[0]) == (3, 1)
    # certificates outlive the verdict: the same query reads all three
    second = detect_unexpected(example_quartic_config(), 4)
    assert (calls[0], kernels[0]) == (3, 2)
    assert second.to_dict() == first.to_dict()


def test_cyclotomic_rows_are_integral_only_on_a_rank_drop(monkeypatch):
    # over Q and Q(zeta_n) a conditions matrix builds its rows at each map
    # from the images of its points, and its integral rows, with Field.mul,
    # only when a certificate reads them
    calls = _count_certificates(monkeypatch)
    kernels = [0]
    nullspace = linsys.nullspace_basis

    def counted(M):
        kernels[0] += 1
        return nullspace(M)

    monkeypatch.setattr(linsys, "nullspace_basis", counted)
    # products are counted only where rows are built, not read from the memo
    build = linsys._condition_rows
    integral, products, building = [0], [0], [False]

    def tracked(parts, d, ring):
        integral[0] += ring is Z.field
        building[0] = True
        try:
            return build(parts, d, ring)
        finally:
            building[0] = False

    monkeypatch.setattr(linsys, "_condition_rows", tracked)
    cases = [(random_config(9, 1000, ("integral", i)), 4, False) for i in range(4)]
    cases += [(dual_fermat(5), 6, False), (dual_fermat(6), 7, False), (dual_fermat(5), 7, True)]
    for field in {Z.field for Z, _, _ in cases}:

        def counted_mul(*args, mul=field.mul):
            products[0] += building[0]
            return mul(*args)

        monkeypatch.setattr(field, "mul", counted_mul)
    for Z, d, positive in cases:
        calls[0] = kernels[0] = integral[0] = products[0] = 0
        assert detect_unexpected(Z, d).unexpected == positive
        if not positive:
            # every rank is full at prime 0: no certificate and no integral row
            assert (calls[0], kernels[0], integral[0], products[0]) == (0, 0, 0, 0)
    # F5 at d = 7: each of the three samples drops rank and builds its
    # integral rows once, for its certificate; the witness is the first
    # sample's certificate, found by its points without integral rows
    assert (calls[0], kernels[0], integral[0]) == (3, 1, 3)
    assert products[0] > 0


def _height_one_subsets(count):
    """The first count nine-point subsets of the 13 points of height one, in
    combinations order, as a search takes them."""
    points = [t for t in itertools.product((-1, 0, 1), repeat=3) if any(t) and next(c for c in t if c) == 1]
    assert len(points) == 13
    subsets = itertools.islice(itertools.combinations(points, 9), count)
    return [PointConfiguration(QQ, list(subset)) for subset in subsets]


def test_subsets_sharing_points_share_their_rows(monkeypatch):
    # two consecutive nine-point subsets of the 13 points of height one that
    # share 8 points as a prefix: the second verdict builds the rows of its
    # new point only, and reads those of the 8 shared points and of the
    # common sample from the row memo.  Both are negatives whose rows fit,
    # 9 + 6 <= 15, so each is one full-rank test at prime 0 of Z + 3P0 with
    # the sample's rows first: the first reduces the sample's 6 rows, then
    # Z's 9, in one elimination; the second resumes it after the sample and
    # the 8 shared points, so it reduces its new point's row alone
    first, second = _height_one_subsets(2)
    assert first.points[:8] == second.points[:8] and first.points[8] != second.points[8]
    forward = poly._forward
    prime = QQ.certificate_prime(0)[0]
    reduced = []

    def counted(residues, ncols, p, echelon, sizes, slack):
        before = len(sizes)
        forward(residues, ncols, p, echelon, sizes, slack)
        if p == prime:
            reduced.append(len(sizes) - before)

    monkeypatch.setattr(poly, "_forward", counted)
    reports = [detect_unexpected(first, 4)]
    misses = linsys._point_rows.cache_info().misses
    # the 9 points of Z and the 3-fold sample point, each at the one map of
    # prime 0
    assert misses == 9 + 1
    assert reduced == [15]
    reduced.clear()
    reports.append(detect_unexpected(second, 4))
    assert linsys._point_rows.cache_info().misses == misses + 1
    assert reduced == [1]
    assert not any(r.unexpected for r in reports)
    assert [[P for P, _ in r.samples] for r in reports] == [[DEFAULT_STRATEGY.sample_point(QQ, 0)]] * 2


def test_warm_eliminations_change_no_verdict():
    # the first 100 subsets of a search, two of them positives: each
    # verdict, its sample dimensions and its witness with the store the
    # last verdict left equal those from an emptied store
    subsets = _height_one_subsets(100)
    warm = [detect_unexpected(Z, 4).to_dict() for Z in subsets]
    cold = []
    for Z in subsets:
        poly._eliminations.clear()
        cold.append(detect_unexpected(Z, 4).to_dict())
    assert warm == cold
    assert sum(r["unexpected"] for r in warm) == 2


def test_the_full_rank_test_changes_no_report(monkeypatch):
    # every report equals the one taken with the full-rank test made
    # inconclusive, so that each verdict ranks Z alone and then its samples:
    # all 715 nine-point subsets of the height-one points at d = 4, seeded
    # random sets of every shape the benchmark's detect workload asks, in
    # both modes, and the three families at d = 4, certified, over Q and
    # over Q(zeta_6).  The test decides each negative whose rows fit: the
    # search's 707, the random sets of the shapes (9, 4), (9, 5) and
    # (10, 5), 9 in each mode, and the 6 family instances
    certified = GeneralPointStrategy(mode="certified")
    zeta6 = primitive_root(make_field("cyclotomic", 6))
    queries = [(Z, 4, DEFAULT_STRATEGY) for Z in _height_one_subsets(715)]
    queries += [
        (random_config(r, 1000, ("full-rank test", r, d, i)), d, strategy)
        for r in (9, 10, 12)
        for d in (3, 4, 5)
        for i in range(3)
        for strategy in (DEFAULT_STRATEGY, certified)
    ]
    queries += [
        (family(name, params), 4, certified)
        for name, params in (
            ("prop31", {"a": 6, "b": -2}),
            ("prop31", {"a": Fraction(1, 2), "b": 3}),
            ("prop33-case3", {"a": 2, "b": 3}),
            ("prop33-case3", {"a": -3, "b": Fraction(5, 2)}),
            ("prop33-first", {"a": 5}),
            ("prop33-first", {"a": zeta6}),
        )
    ]
    decided = [0]
    full_rank = unexpected._full_rank

    def counted(M, slot):
        found = full_rank(M, slot)
        decided[0] += found
        return found

    monkeypatch.setattr(unexpected, "_full_rank", counted)
    active = [detect_unexpected(*query).to_dict() for query in queries]
    assert decided[0] == 707 + 2 * 9 + 6
    assert sum(r["unexpected"] for r in active) == 8
    monkeypatch.setattr(unexpected, "_full_rank", lambda M, slot: False)
    assert [detect_unexpected(*query).to_dict() for query in queries] == active


def test_the_full_rank_test_runs_only_where_the_rows_fit():
    # 12 points, 6 of them on the line z = 0, at d = 4: a quartic through
    # the 6 contains the line, so Z's 12 rows have rank 11 and dim I(Z)_4 =
    # 4.  The rows of Z and of the 3-fold sample, 12 + 6, outnumber the 15
    # columns, so no full-rank test runs: with them, full rank 15 would
    # hold, and would not prove Z's rows independent
    line = [(1, k, 0) for k in range(5)] + [(0, 1, 0)]
    Z = PointConfiguration(QQ, line + [(2, 3, 1), (-5, 7, 1), (4, -1, 1), (3, 8, 1), (-6, -2, 1), (7, 5, 1)])
    assert system_dimension(FatPointScheme.of(Z), 4) == 4
    for strategy in (DEFAULT_STRATEGY, GeneralPointStrategy(mode="certified")):
        rep = detect_unexpected(Z, 4, strategy)
        assert (rep.dim_z, rep.generic_dim, rep.threshold, rep.unexpected) == (4, 0, 0, False)
        assert generic_dim(Z, 3, 4, strategy) == 0


def test_a_search_resumes_the_first_sample_across_verdicts(monkeypatch):
    # the first 100 subsets of a search, from emptied stores, reduce 242
    # rows at prime 0 (810 when each verdict ranked Z and then Z + 3P0): a
    # negative whose rows fit resumes the last full-rank test after the
    # first sample's 6 rows and the points it shares with the last subset,
    # the 2 positives test, then rank Z and three samples
    forward = poly._forward
    prime = QQ.certificate_prime(0)[0]
    reduced = [0]

    def counted(residues, ncols, p, echelon, sizes, slack):
        before = len(sizes)
        forward(residues, ncols, p, echelon, sizes, slack)
        if p == prime:
            reduced[0] += len(sizes) - before

    monkeypatch.setattr(poly, "_forward", counted)
    assert sum(detect_unexpected(Z, 4).unexpected for Z in _height_one_subsets(100)) == 2
    assert reduced[0] == 242


def test_threads_share_the_elimination_store(monkeypatch):
    # two threads take alternate subsets at once, at degrees 2 to 10, whose
    # keys outnumber the bound: their verdicts are the serial ones, and the
    # store ends full, within its bound
    queries = [(Z, 2 + i % 9) for i, Z in enumerate(_height_one_subsets(72))]
    serial = [detect_unexpected(Z, d).to_dict() for Z, d in queries]
    poly._eliminations.clear()
    keys, eliminate = set(), poly._eliminate

    def keyed(M, p, image, key, slack):
        keys.add(key)
        return eliminate(M, p, image, key, slack)

    monkeypatch.setattr(poly, "_eliminate", keyed)
    found = [None] * len(queries)
    barrier = threading.Barrier(2)

    def run(offset):
        barrier.wait()
        for i in range(offset, len(queries), 2):
            found[i] = detect_unexpected(*queries[i]).to_dict()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, inside the store's updates too
    try:
        threads = [threading.Thread(target=run, args=(offset,)) for offset in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert found == serial
    assert len(keys) > poly._STORE_BOUND == len(poly._eliminations)


def test_threads_share_the_certificate_store():
    # two threads ask at once, from cleared stores, for the example at d =
    # 4, a projective image of it, a random negative and the dual F3 and F5
    # over Q(zeta_n), sampled and certified (F5's grid, 1.8 s, sampled
    # only), one thread in order and one in reverse: each reads
    # certificates and eliminations the other stored, and each report is
    # the serial one
    certified = GeneralPointStrategy(mode="certified")
    image = apply_transform([[2, -1, 1], [1, 1, 0], [0, 3, 1]], example_quartic_config())
    queries = [
        (Z, d, strategy)
        for Z, d in (
            (example_quartic_config(), 4),
            (image, 4),
            (random_config(9, 1000, ("threads", 0)), 4),
            (dual_fermat(3), 4),
        )
        for strategy in (DEFAULT_STRATEGY, certified)
    ] + [(dual_fermat(5), 7, DEFAULT_STRATEGY)]
    serial = [detect_unexpected(*query).to_dict() for query in queries]
    assert [r["unexpected"] for r in serial] == [True] * 4 + [False] * 4 + [True]
    poly._eliminations.clear()
    poly._certificates.clear()
    found = [[None] * len(queries), [None] * len(queries)]
    barrier = threading.Barrier(2)

    def run(reverse):
        barrier.wait()
        for i in reversed(range(len(queries))) if reverse else range(len(queries)):
            found[reverse][i] = detect_unexpected(*queries[i]).to_dict()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(reverse,)) for reverse in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert found == [serial, serial]
    assert 0 < len(poly._certificates) <= poly._STORE_BOUND


def test_generic_dim_resumes_each_sample_after_the_rows_of_z(monkeypatch):
    # the example at j = 3, d = 4: each of the three samples drops rank, and
    # its 15 x 15 rank takes two primes.  Taken alone, a sample's rank
    # reduces its 15 rows for the full-rank test, which its certificate
    # resumes at prime 0, and again for prime 1, 30 rows.  From an empty
    # elimination store, the later samples resume after the 9 rows of Z, so
    # they reduce only their 6 rows of P per prime: 30 + 12 + 12 rows.
    # Before them, as the rows fit, 9 + 6 <= 15, the verdict tests Z + 3P0
    # for full rank at prime 0 with the first sample's rows leading, in a
    # slot of its own; the test fails, as the quartic is unexpected, after
    # all 15 rows, so 15 + 54 = 69.  The certificates are cleared with the
    # eliminations wherever a rank is counted cold, as a kept certificate
    # reduces no row
    forward = poly._forward
    reduced = [0]

    def counted(residues, ncols, p, echelon, sizes, slack):
        before = len(sizes)
        forward(residues, ncols, p, echelon, sizes, slack)
        reduced[0] += len(sizes) - before

    monkeypatch.setattr(poly, "_forward", counted)
    Z = example_quartic_config()
    assert generic_dim(Z, 3, 4) == 1
    assert reduced[0] == 69
    poly._eliminations.clear()
    poly._certificates.clear()
    reduced[0] = 0
    assert multiplicity_dim(Z, 3) == 1
    assert reduced[0] == 69
    reduced[0] = 0
    # each rank from an emptied store: Z's 9 rows for dim I(Z)_4 (full rank
    # at prime 0), then each sample alone; the test before them resumes the
    # elimination of the same rows that the last verdict kept in its slot,
    # and reduces none
    rank = poly._rank

    def alone(M):
        poly._certificates.clear()
        poly._eliminations.clear()
        return rank(M)

    monkeypatch.setattr(poly, "_rank", alone)
    assert generic_dim(Z, 3, 4) == 1
    assert reduced[0] == 9 + 3 * 30


def _count_sample_points(monkeypatch):
    draws = [0]
    sample_point = GeneralPointStrategy.sample_point

    def counted(self, field, index, avoid=()):
        draws[0] += 1
        return sample_point(self, field, index, avoid)

    monkeypatch.setattr(GeneralPointStrategy, "sample_point", counted)
    return draws


def test_sampled_trace_stops_each_m_at_its_floor(monkeypatch):
    # m(j) stops at the first sample that meets max(0, dim I(Z)_(j+1) -
    # C(j+1, 2)), so the example's trace m(0..8) draws 9 sample points:
    # none at j = 0 or at j = 1, where dim I(Z)_2 = 0 is already the floor,
    # all three at j = 3, where the quartic keeps m(3) = 1 above its floor 0,
    # and one at each other j
    draws = _count_sample_points(monkeypatch)
    Z = example_quartic_config()
    assert [multiplicity_dim(Z, j) for j in range(9)] == [0, 0, 0, 1, 2, 4, 6, 8, 10]
    assert draws[0] == 9


def test_no_sample_where_dim_iz_meets_the_floor(monkeypatch):
    # dim I(Z)_d bounds every P from above, so where it equals the floor the
    # value is proved without a sample point, in either mode
    draws = _count_sample_points(monkeypatch)
    Z = example_quartic_config()
    twelve = random_config(12, 1000, "no-sample")
    for strategy in (DEFAULT_STRATEGY, GeneralPointStrategy(mode="certified")):
        assert generic_dim(Z, 0, 4, strategy) == 6  # j = 0 is dim I(Z)_4 itself
        rep = detect_unexpected(twelve, 3, strategy)
        assert (rep.dim_z, rep.generic_dim, rep.threshold) == (0, 0, 0)
        assert not rep.unexpected and rep.samples == ()
    assert draws[0] == 0


EXCLUDED_PAIR = [[1, 0, 0], [0, 1, 0], [1, -1, 0], [1, 1, 0], [1, 0, 1], [0, 1, 1],
                 [1, 1, 2], [0, 0, 1], [1, 1, 1]]  # fmt: skip


def test_certified_grid_runs_only_for_positives(monkeypatch):
    # a certified negative is proved by a sample that meets the threshold,
    # the lower bound from the condition count, so only the positives, where
    # the samples stay above it, reach the symbolic grid
    claim = [None]
    grids = []  # (claim, scheme, j, d) of each grid certificate
    symbolic_matrix = unexpected.symbolic_conditions_matrix

    def recorded(X, j, d):
        grids.append((claim[0], X, j, d))
        return symbolic_matrix(X, j, d)

    monkeypatch.setattr(unexpected, "symbolic_conditions_matrix", recorded)
    certified = GeneralPointStrategy(mode="certified")
    zeta6 = primitive_root(make_field("cyclotomic", 6))
    F3 = dual_fermat(3)
    for Z, d, grid_calls in (
        (family("prop31", {"a": 6, "b": -2}), 4, 0),
        (family("prop33-first", {"a": zeta6}), 4, 0),
        (F3, 2, 0),
        (F3, 3, 0),
        (F3, 4, 0),
        (example_quartic_config(), 4, 1),
        (PointConfiguration(QQ, EXCLUDED_PAIR), 4, 1),
    ):
        grids.clear()
        rep = detect_unexpected(Z, d, certified)
        assert rep.unexpected == bool(grid_calls) and rep.certified
        assert len(grids) == grid_calls, (Z, d)
        # both modes draw the same samples, up to the first at the threshold
        sampled = detect_unexpected(Z, d).to_dict()
        assert rep.to_dict() == {**sampled, "certified": True}
    # the certified suite's grid certificates are for the example's quartic,
    # at (j, d) = (3, 4): the excluded pair of family-emptiness, the injected
    # example of the uniqueness grid, the certified check of
    # example-quartic-unexpected and m(3) of example-splitting; and for the
    # dual F5's septic over Q(zeta_5), at (6, 7), of fermat5-degree7
    def tagged(name, run):
        def run_tagged(seed, strategy):
            claim[0] = name
            return run(seed, strategy)

        return run_tagged

    runners = {name: tagged(name, run) for name, run in verify.CLAIM_RUNNERS.items()}
    monkeypatch.setattr(verify, "CLAIM_RUNNERS", runners)
    grids.clear()
    assert all(r.passed for r in verify.run_paper_suite(seed=0, certify=True))
    assert [name for name, *_ in grids] == [
        "family-emptiness",
        "quartic-uniqueness-grid",
        "fermat5-degree7",
        "example-quartic-unexpected",
        "example-splitting",
    ]
    example = example_quartic_config()
    for name, X, j, d in grids:
        assert all(m == 1 for _, m in X)
        points = PointConfiguration(X.field, [p for p, _ in X])
        if name == "fermat5-degree7":
            assert (j, d) == (6, 7) and points == dual_fermat(5)
        else:
            assert (j, d) == (3, 4) and projective_equivalent(points, example)[0]


def test_a_certified_positive_keeps_no_tangency_elimination(monkeypatch):
    # the tangency matrix's eliminations and certificate are read once, and
    # kept in neither store, so a certified positive leaves the keys it left
    # before the derivation bound: the full-rank test's, a certificate's at
    # primes 1 and 0, and four certificates, all of the 15 columns of quartics
    bounds = []
    derivation_bound = unexpected.derivation_bound

    def recorded(*args):
        bounds.append(derivation_bound(*args))
        return bounds[-1]

    monkeypatch.setattr(unexpected, "derivation_bound", recorded)
    rep = detect_unexpected(example_quartic_config(), 4, GeneralPointStrategy(mode="certified"))
    assert rep.unexpected and bounds == [1]
    assert list(poly._eliminations) == [(QQ, (15, "lead"), 0, 0), (QQ, 15, 1, 0), (QQ, 15, 0, 0)]
    assert [key[:2] for key in poly._certificates] == [(QQ, 15)] * 4


def test_sample_and_floor_refuses_a_sample_below_the_floor(monkeypatch):
    # a sample below the condition-count bound would be a wrong rank: it is
    # reported in either mode, never clamped to the floor; a sample at the
    # floor is the value.  The example's nine points impose independent
    # conditions on quartics, so at j = 2, d = 4 the floor is 6 - 3 = 3.
    # The rows fit there, 9 + 3 <= 15, so the full-rank test would give the
    # floor without a rank of the sample: it is made inconclusive, and the
    # sample is ranked by system_dimension
    Z = example_quartic_config()
    certified = GeneralPointStrategy(mode="certified")
    for strategy in (DEFAULT_STRATEGY, certified):
        X, dim_z, floor, samples, value = unexpected._sample_and_floor(Z, 2, 4, strategy)
        assert X.parts == FatPointScheme.of(Z).parts  # Z's scheme, for the witness
        assert (dim_z, floor, value) == (6, 3, 3)
        assert [dim for _, dim in samples] == [3]  # the first sample meets it
    dimension = unexpected.system_dimension

    def one_less(X, d):  # a scheme with the sample point loses one dimension
        dim = dimension(X, d)
        return dim - 1 if len(X) > len(Z) else dim

    monkeypatch.setattr(unexpected, "system_dimension", one_less)
    monkeypatch.setattr(unexpected, "_full_rank", lambda M, slot: False)
    for strategy in (DEFAULT_STRATEGY, certified):
        with pytest.raises(AssertionError):
            unexpected._sample_and_floor(Z, 2, 4, strategy)
        with pytest.raises(AssertionError):
            detect_unexpected(Z, 3, strategy)


def test_certified_generic_dim_falls_back_to_the_grid_without_samples():
    # Z covers all 25 affine points of height at most 2, so a height-2
    # strategy has no sample point: certified mode proves the value on the
    # grid alone, and sampled mode refuses
    box = PointConfiguration(QQ, [(x, y, 1) for x in range(-2, 3) for y in range(-2, 3)])
    certified = GeneralPointStrategy(mode="certified", height=2)
    with pytest.raises(ValueError):
        certified.sample_point(QQ, 0, box.points)
    for j, d, expected in ((2, 6, 3), (4, 7, 2)):
        assert generic_dim(box, j, d, certified) == expected
        with pytest.raises(ValueError):
            generic_dim(box, j, d, GeneralPointStrategy(height=2))
    # a report draws no sample either: a certified one is proved on the
    # grid, and a sampled one refuses, as the CLI does with exit code 3
    rep = detect_unexpected(box, 7, certified)
    assert rep.certified and rep.samples == () and rep.witness is None
    assert (rep.dim_z, rep.generic_dim, rep.threshold) == (12, 0, 0)
    with pytest.raises(ValueError):
        detect_unexpected(box, 7, GeneralPointStrategy(height=2))


def test_semicontinuity_of_samples():
    Z = example_quartic_config()
    rep = detect_unexpected(Z, 4, GeneralPointStrategy(seed=5))
    assert all(dim >= rep.generic_dim for _, dim in rep.samples)
    assert any(dim == rep.generic_dim for _, dim in rep.samples)


def test_certified_matches_sampled_on_example():
    Z = example_quartic_config()
    sampled = detect_unexpected(Z, 4, GeneralPointStrategy(seed=1))
    certified = detect_unexpected(Z, 4, GeneralPointStrategy(mode="certified"))
    assert sampled.generic_dim == certified.generic_dim == 1
    assert certified.certified


def test_detection_invariant_under_transform():
    rng = random.Random("detinv")
    Z = example_quartic_config()
    for _ in range(3):
        T = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        Tm = tuple(tuple(QQ.scalar(e) for e in row) for row in T)
        if mat3_det(Tm).is_zero():
            continue
        image = apply_transform(T, Z)
        assert detect_unexpected(image, 4).unexpected
    W = random_config(9, 40, "detinv2")
    image = apply_transform([[1, 2, 3], [0, 1, 4], [0, 0, 1]], W)
    assert detect_unexpected(W, 4).unexpected == detect_unexpected(image, 4).unexpected


def test_strategy_determinism():
    Z = example_quartic_config()
    a = detect_unexpected(Z, 4, GeneralPointStrategy(seed=9))
    b = detect_unexpected(Z, 4, GeneralPointStrategy(seed=9))
    assert a.to_dict() == b.to_dict()
    c = detect_unexpected(Z, 4, GeneralPointStrategy(seed=10))
    assert [s["point"] for s in a.to_dict()["samples"]] != [
        s["point"] for s in c.to_dict()["samples"]
    ]


def test_sample_points_avoid_configuration():
    Z = example_quartic_config()
    strat = GeneralPointStrategy(height=2, seed=0)
    P = strat.sample_point(QQ, 0, set(Z.points))
    assert P not in Z.points


def _fresh_draw(seed, index, height, field, avoid=()):
    """The point sample_point draws, from a fresh seeded stream, with no memo."""
    rng = random.Random(f"fatpoints:{seed}:{index}")
    while True:
        p = ProjectivePoint(field, (rng.randint(-height, height), rng.randint(-height, height), 1))
        if p not in avoid:
            return p


def test_memoized_first_sample_is_the_fresh_draw():
    f5 = make_field("cyclotomic", 5)
    for seed, field, height in ((0, QQ, 1000), (7, f5, 1000), ((3, 0, "double"), QQ, 1000), (1, QQ, 2)):
        strategy = GeneralPointStrategy(height=height, seed=seed)
        for index in range(3):
            first = _fresh_draw(seed, index, height, field)
            assert strategy.sample_point(field, index) == first
            # the memo's point is returned again, off avoid
            assert strategy.sample_point(field, index, [ProjectivePoint(field, (0, 0, 1))]) is (
                unexpected._first_sample(f"fatpoints:{seed}:{index}", height, field)
            )
            # the first draw avoided: the stream is drawn on, as with no memo
            again = strategy.sample_point(field, index, {first})
            assert again == _fresh_draw(seed, index, height, field, {first}) != first
    info = unexpected._first_sample.cache_info()
    assert info.hits > 0 and info.currsize <= info.maxsize


def test_first_sample_off_the_points_hashes_none_of_them(monkeypatch):
    # the memoized first draw is tested against Z's points as they are
    # given, by equality: no point of dual F6 is hashed, and the set of
    # points to avoid is built only when the stream is drawn afresh
    Z = dual_fermat(6)
    strategy = GeneralPointStrategy()
    first = strategy.sample_point(Z.field, 0)
    hashed = [0]
    point_hash = ProjectivePoint.__hash__

    def counted(self):
        hashed[0] += 1
        return point_hash(self)

    monkeypatch.setattr(ProjectivePoint, "__hash__", counted)
    assert strategy.sample_point(Z.field, 0, Z.points) is first
    assert hashed[0] == 0
    again = strategy.sample_point(Z.field, 0, Z.points + (first,))
    assert again != first and hashed[0] >= len(Z) + 1


def test_sample_point_refuses_a_fully_avoided_box():
    strategy = GeneralPointStrategy(height=2)
    box = [ProjectivePoint(QQ, (x, y, 1)) for x in range(-2, 3) for y in range(-2, 3)]
    # the memoized first draw is in the box, so the box is still refused
    assert strategy.sample_point(QQ, 0) in box
    with pytest.raises(ValueError):
        strategy.sample_point(QQ, 0, box)
    # one box point left free is found, whatever else is avoided
    free = box.pop(7)
    assert strategy.sample_point(QQ, 0, box + [ProjectivePoint(QQ, (5, 5, 1))]) == free


def test_fermat_range_small():
    # the scan's degrees [3, 2n - 3], which the suite's Fermat claims read too
    assert [list(unexpected.fermat_degrees(n)) for n in (3, 5)] == [[3], [3, 4, 5, 6, 7]]
    assert fermat_unexpected_range(3) == []
    assert fermat_unexpected_range(4) == []
    with pytest.raises(ValueError):
        fermat_unexpected_range(2)


def test_strategy_validation():
    with pytest.raises(ValueError):
        GeneralPointStrategy(mode="magic")
    with pytest.raises(ValueError):
        GeneralPointStrategy(samples=0)
    with pytest.raises(ValueError):
        GeneralPointStrategy(height=1)


def test_report_json_shape():
    rep = detect_unexpected(example_quartic_config(), 4)
    d = rep.to_dict()
    assert set(d) >= {"degree", "dimZ", "genericDim", "threshold", "unexpected", "certified", "samples"}
    assert "witness" in d
    assert all(set(s) == {"point", "dim"} for s in d["samples"])
