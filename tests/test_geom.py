"""Projective incidence, duality, transforms, and equivalence testing."""

import random
from fractions import Fraction
from math import comb

import pytest

import fatpoints.geom as geom
from fatpoints import (
    DegenerateInputError,
    PointConfiguration,
    ProjectivePoint,
    ProjectiveLine,
    QQ,
    Scalar,
    analyze_lines,
    apply_transform,
    dual_fermat,
    dual_points,
    dualize,
    example_quartic_config,
    example_quartic_variant,
    frame_transform,
    line_through,
    make_field,
    meet,
    primitive_root,
    projective_equivalent,
    random_config,
)
from fatpoints.geom import mat3_adjugate, mat3_det, mat3_mul, mat3_vec


def P(*coords, field=QQ):
    return ProjectivePoint(field, coords)


def L(*coords, field=QQ):
    return ProjectiveLine(field, coords)


def test_point_normalization_and_equality():
    assert P(2, 4, 6) == P(1, 2, 3)
    assert P(0, -3, 6) == P(0, 1, -2)
    with pytest.raises(DegenerateInputError):
        P(0, 0, 0)


def test_rational_points_and_lines_store_their_primitive_integer_triple():
    third = Fraction(1, 3)
    triples = [(2, 4, 6), (third, 2 * third, 1), (-1, -2, -3)]
    triples += [tuple(QQ.scalar(c) for c in t) for t in triples]
    for make, text in ((P, "[1, 2, 3]"), (L, "<1, 2, 3>")):
        objs = [make(*t) for t in triples]
        for o in objs:
            assert o.triple == (1, 2, 3)
            assert o == objs[0] and hash(o) == hash(objs[0])
            assert o.coeffs == (QQ.one, QQ.scalar(2), QQ.scalar(3))
            assert repr(o) == text
        with pytest.raises(DegenerateInputError):
            make(0, 0, 0)
    # gcd 1 and the first nonzero coordinate positive; coeffs scale it to 1
    q = P(0, Fraction(-3, 4), Fraction(3, 2))
    assert q.triple == (0, 1, -2) and repr(q) == "[0, 1, -2]"
    assert P(6, -4, 2).triple == (3, -2, 1)
    assert repr(P(6, -4, 2)) == "[1, -2/3, 1/3]"
    assert P(1, 2, 3) != L(1, 2, 3)


def test_cyclotomic_points_keep_their_normalized_scalars():
    f5 = make_field("cyclotomic", 5)
    z = primitive_root(f5)
    p = P(z, 1 + z, 2, field=f5)
    assert p == P(2 * z, 2 + 2 * z, 4, field=f5)
    assert hash(p) == hash(P(2 * z, 2 + 2 * z, 4, field=f5))
    assert p.triple == p.coeffs and p.coeffs[0] == f5.one
    assert repr(p) == "[1, -z-z^2-z^3, -2-2*z-2*z^2-2*z^3]"
    assert repr(P(0, 2 * z, z * z, field=f5)) == "[0, 1, 1/2*z]"
    assert repr(L(3, z, 0, field=f5)) == "<1, 1/3*z, 0>"
    with pytest.raises(DegenerateInputError):
        P(f5.zero, f5.zero, f5.zero, field=f5)


def test_lift_and_round_trip_keep_the_points():
    f5 = make_field("cyclotomic", 5)
    Z = PointConfiguration(QQ, [(2, 4, 6), (0, -3, 1), (Fraction(1, 2), 0, 1)])
    lifted = Z.lift(f5)
    assert [repr(p) for p in lifted] == [repr(p) for p in Z]
    assert [p.coeffs for p in lifted] == [tuple(f5.scalar(c.as_fraction()) for c in p.coeffs) for p in Z]
    for config in (Z, lifted):
        again = PointConfiguration.from_dict(config.to_dict())
        assert again == config
        assert [p.triple for p in again] == [p.triple for p in config]
    assert Z.to_dict()["points"] == [["1", "2", "3"], ["0", "1", "-1/3"], ["1", "0", "2"]]


def test_line_through_examples():
    assert line_through(P(1, 0, 0), P(0, 1, 0)) == L(0, 0, 1)
    # the two points at infinity of the example configuration also span z = 0
    assert line_through(P(1, -1, 0), P(1, 1, 0)) == L(0, 0, 1)
    # oracle for the third case: cross product of the coordinate triples
    u, v = (-1, 0, 1), (1, 0, 1)
    cross = (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )
    assert cross == (0, 2, 0)  # the line y = 0
    assert line_through(P(-1, 0, 1), P(1, 0, 1)) == L(0, 1, 0)
    with pytest.raises(DegenerateInputError):
        line_through(P(1, 2, 3), P(2, 4, 6))


def test_memoized_joins_still_refuse_equal_points():
    geom._joined.cache_clear()
    f3 = make_field("cyclotomic", 3)
    z = primitive_root(f3)
    for field, p, q in ((QQ, P(1, 2, 3), P(0, 1, 1)), (f3, P(1, z, 3, field=f3), P(0, 1, z, field=f3))):
        # the second round is read from the memo: the equal pair raises again
        lines = []
        for _ in range(2):
            with pytest.raises(DegenerateInputError):
                line_through(p, P(*(2 * c for c in p.coeffs), field=field))
            lines.append(line_through(p, q))
            with pytest.raises(DegenerateInputError):
                meet(lines[-1], lines[-1])
        assert lines[0] == lines[1] == L(*geom._cross(p.coeffs, q.coeffs), field=field)
    info = geom._joined.cache_info()
    assert (info.hits, info.misses) == (6, 6)
    for x in range(300):
        line_through(P(x, 1, 1), P(0, 0, 1))
    assert geom._joined.cache_info().currsize <= geom._joined.cache_info().maxsize


def test_meet_examples():
    assert meet(L(1, 0, 0), L(0, 1, 0)) == P(0, 0, 1)
    l1 = line_through(P(1, 1, 1), P(1, 0, 0))
    l2 = line_through(P(1, 1, 1), P(0, 1, 0))
    assert meet(l1, l2) == P(1, 1, 1)
    with pytest.raises(DegenerateInputError):
        meet(L(1, 0, 0), L(2, 0, 0))


def test_meet_two_four_rich_lines_instantiated():
    # R1 = [1,0,0], Q2 = [0,a-b,a-1], R2 = [0,1,0], Q1 = [a-b,0,1-b] at
    # (a, b) = (3, 5); the meet must be [(1-a)(a-b), (1-b)(b-a), (1-a)(1-b)]
    a, b = 3, 5
    r1q2 = line_through(P(1, 0, 0), P(0, a - b, a - 1))
    r2q1 = line_through(P(0, 1, 0), P(a - b, 0, 1 - b))
    expected = P((1 - a) * (a - b), (1 - b) * (b - a), (1 - a) * (1 - b))
    assert expected == P(4, -8, 8)
    assert meet(r1q2, r2q1) == expected


def test_analyze_lines_example_configuration():
    Z = example_quartic_config()
    stats = analyze_lines(Z)
    assert stats.histogram == {2: 6, 3: 4, 4: 3}
    rich4 = {idx for _, idx in stats.k_rich_lines(4)}
    assert rich4 == {(0, 2, 4, 8), (1, 3, 4, 7), (5, 6, 7, 8)}


def test_analyze_lines_fermat_and_general():
    stats = analyze_lines(dual_fermat(3))
    assert stats.histogram == {3: 12}
    general = PointConfiguration(QQ, [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 2, 1)])
    stats = analyze_lines(general)
    assert stats.histogram == {2: 6}


def test_pair_count_identity():
    rng = random.Random("pairs")
    for t in range(10):
        Z = random_config(rng.randint(3, 9), 6, ("pairs", t))
        stats = analyze_lines(Z)
        assert sum(comb(len(idx), 2) for _, idx in stats.lines) == comb(len(Z), 2)


def _collinear_run_configs(field, seed):
    """Seeded point sets over field with forced collinear runs."""
    rng = random.Random(f"runs:{seed}")
    extra = primitive_root(field) if field.degree > 1 else field.one

    def coord():
        return field.scalar(rng.randint(-4, 4)) + field.scalar(rng.randint(-2, 2)) * extra

    for _ in range(4):
        pts = []
        for _ in range(rng.randint(1, 2)):
            u = [coord() for _ in range(3)]
            v = [coord() for _ in range(3)]
            for s in rng.sample(range(-5, 6), rng.randint(3, 5)):
                pts.append([a + field.scalar(s) * b for a, b in zip(u, v)])
        pts += [[coord() for _ in range(3)] for _ in range(rng.randint(1, 4))]
        distinct = []
        for q in pts:
            if any(q) and ProjectivePoint(field, q) not in distinct:
                distinct.append(ProjectivePoint(field, q))
        yield PointConfiguration(field, distinct)


def _inventory_configs():
    f5 = make_field("cyclotomic", 5)
    variants = [example_quartic_variant(pair) for pair in ((6, 7), (5, 7), (5, 6))]
    yield dual_fermat(3)
    yield dual_fermat(4)
    for V in variants:
        yield V
        yield V.lift(f5)
    for field in (QQ, f5, make_field("cyclotomic", 3)):
        yield from _collinear_run_configs(field, field.degree)


def test_inventory_lines_match_the_determinant_reference():
    for Z in _inventory_configs():
        stats = analyze_lines(Z)
        first_pairs = [idx[:2] for _, idx in stats.lines]
        # lines come in the order of their smallest pair, each once
        assert first_pairs == sorted(set(first_pairs))
        for ln, idx in stats.lines:
            i, j = idx[:2]
            on_line = tuple(
                k for k in range(len(Z))
                if mat3_det((Z[i].coeffs, Z[j].coeffs, Z[k].coeffs)).is_zero()
            )
            assert idx == on_line
            assert ln == line_through(Z[i], Z[j])
        assert sum(comb(len(idx), 2) for _, idx in stats.lines) == comb(len(Z), 2)


def test_dualize_examples():
    Zp = PointConfiguration(QQ, [(1, 2, 3)])
    lines = dualize(Zp)
    assert lines[0] == L(1, 2, 3)
    f3 = make_field("cyclotomic", 3)
    z = primitive_root(f3)
    fermat_factor_dual = ProjectivePoint(f3, (f3.one, -z, f3.zero))
    assert dualize(PointConfiguration(f3, [fermat_factor_dual]))[0] == ProjectiveLine(
        f3, (f3.one, -z, f3.zero)
    )
    rng = random.Random("dual")
    for t in range(8):
        Z = random_config(rng.randint(2, 7), 9, ("dual", t))
        assert dual_points(dualize(Z), Z.field) == Z


def test_pencil_lines():
    Z = example_quartic_config()
    pencil = [ln for ln, _ in analyze_lines(Z).lines_through(4)]  # through Z5
    assert {ln.coeffs for ln in pencil} == {
        L(0, 1, 0).coeffs,  # y = 0
        L(1, 0, 0).coeffs,  # x = 0
        L(1, 1, 0).coeffs,  # x + y = 0
        L(1, -1, 0).coeffs,  # x - y = 0
    }
    general = PointConfiguration(QQ, [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 2, 1)])
    assert len(analyze_lines(general).lines_through(0)) == 3
    F3 = dual_fermat(3)
    stats = analyze_lines(F3)
    for i in range(len(F3)):
        assert len(stats.lines_through(i)) == 4


def test_apply_transform():
    Z = example_quartic_config()
    assert apply_transform([[1, 0, 0], [0, 1, 0], [0, 0, 1]], Z) == Z
    img = apply_transform([[1, 0, 0], [0, 1, 0], [0, 0, 2]], PointConfiguration(QQ, [(0, 0, 1)]))
    assert img[0] == P(0, 0, 1)
    with pytest.raises(DegenerateInputError):
        apply_transform([[1, 0, 0], [2, 0, 0], [0, 0, 1]], Z)
    rng = random.Random("transform")
    for _ in range(5):
        T = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)]
        Tm = tuple(tuple(QQ.scalar(e) for e in row) for row in T)
        if mat3_det(Tm).is_zero():
            continue
        assert analyze_lines(apply_transform(T, Z)).histogram_key() == analyze_lines(Z).histogram_key()


def test_incidence_is_transform_invariant():
    # a line l through p stays incident under (T, adj(T)^T): the images of
    # two points of l span the image of l, and a third point lies on l
    # exactly when its image lies on the image line
    rng = random.Random("incid")
    for _ in range(30):
        T = tuple(
            tuple(QQ.scalar(rng.randint(-4, 4)) for _ in range(3)) for _ in range(3)
        )
        if mat3_det(T).is_zero():
            continue
        p = P(rng.randint(-5, 5), rng.randint(-5, 5), 1)
        q = P(rng.randint(-5, 5), rng.randint(-5, 5), 2)
        if p == q:
            continue
        l = line_through(p, q)
        adjT = mat3_adjugate(T)
        l2 = ProjectiveLine(QQ, mat3_vec(tuple(zip(*adjT)), l.coeffs))

        def image(pt):
            return ProjectivePoint(QQ, mat3_vec(T, pt.coeffs))

        assert line_through(image(p), image(q)) == l2
        r = P(9, 7, 1)
        assert (line_through(image(p), image(r)) == l2) == (line_through(p, r) == l)


def test_frame_transform_examples():
    std = [P(1, 0, 0), P(0, 1, 0), P(0, 0, 1), P(1, 1, 1)]
    T = frame_transform(std, std)
    for e in std:
        assert ProjectivePoint(QQ, mat3_vec(T, e.coeffs)) == e
    frame31 = [P(0, 0, 1), P(1, 0, 0), P(0, 1, 0), P(1, 1, 1)]
    T = frame_transform(std, frame31)
    for src, dst in zip(std, frame31):
        assert ProjectivePoint(QQ, mat3_vec(T, src.coeffs)) == dst
    with pytest.raises(DegenerateInputError):
        frame_transform(std, [P(1, 0, 0), P(0, 1, 0), P(1, 1, 0), P(2, 1, 0)])


def test_frame_transform_composition():
    rng = random.Random("frames")

    def random_frame():
        while True:
            pts = [
                P(rng.randint(-6, 6), rng.randint(-6, 6), rng.choice([1, 1, 2]))
                for _ in range(4)
            ]
            if len(set(pts)) == 4:
                # no three collinear: each of the six lines holds two points
                if analyze_lines(PointConfiguration(QQ, pts)).histogram == {2: 6}:
                    return pts

    def projectively_equal(A, B):
        # equal up to a scalar
        ratio = None
        for i in range(3):
            for j in range(3):
                if bool(A[i][j]) != bool(B[i][j]):
                    return False
                if A[i][j]:
                    r = B[i][j] / A[i][j]
                    if ratio is None:
                        ratio = r
                    elif r != ratio:
                        return False
        return True

    for _ in range(5):
        A, B, C = random_frame(), random_frame(), random_frame()
        T1 = frame_transform(A, B)
        T2 = frame_transform(B, C)
        T3 = frame_transform(A, C)
        assert projectively_equal(mat3_mul(T2, T1), T3)


def test_projective_equivalent_basic():
    Z = example_quartic_config()
    T = [[1, 2, 0], [0, 1, 1], [1, 0, 3]]
    image = apply_transform(T, Z)
    verdict, witness = projective_equivalent(Z, image)
    assert verdict
    assert witness is not None
    assert apply_transform(witness, Z).point_set() == image.point_set()


def test_projective_equivalent_variants_and_fermat():
    v67 = example_quartic_variant((6, 7))
    v57 = example_quartic_variant((5, 7))
    verdict, _ = projective_equivalent(v67, v57)
    assert verdict
    F3 = dual_fermat(3)
    lifted = example_quartic_config().lift(F3.field)
    verdict, _ = projective_equivalent(lifted, F3)
    assert not verdict


# witness matrices of projective_equivalent, pinned: the anchor frame and
# the order in which image frames are tried decide which matrix comes first
PINNED_WITNESSES = {
    ((6, 7), (5, 7)): [["8", "8", "-8"], ["8", "8", "8"], ["-16", "16", "0"]],
    ((6, 7), (5, 6)): [["8", "-8", "-8"], ["-8", "8", "-8"], ["-16", "-16", "0"]],
    ((5, 7), (5, 6)): [["-8", "8", "8"], ["-8", "8", "-8"], ["16", "16", "0"]],
}
PINNED_IMAGE_WITNESSES = (
    ([[1, 2, 0], [0, 1, 1], [1, 0, 3]], [["-20", "-40", "0"], ["0", "-20", "-20"], ["-20", "0", "-60"]]),
    ([[2, -1, 1], [1, 1, 0], [0, 3, 1]], [["32", "-16", "16"], ["16", "16", "0"], ["0", "48", "16"]]),
)


def _entries(T):
    return [[str(e) for e in row] for row in T]


def test_equivalence_witnesses_are_pinned():
    for (p1, p2), expected in PINNED_WITNESSES.items():
        verdict, T = projective_equivalent(example_quartic_variant(p1), example_quartic_variant(p2))
        assert verdict and _entries(T) == expected
    Z = example_quartic_config()
    for M, expected in PINNED_IMAGE_WITNESSES:
        verdict, T = projective_equivalent(Z, apply_transform(M, Z))
        assert verdict and _entries(T) == expected


def test_cyclotomic_equivalence_witness_is_the_frame_transform():
    F3 = dual_fermat(3)
    z = primitive_root(F3.field)
    image = apply_transform([[1, z, 0], [0, 1, 1], [z, 0, 1]], F3)
    verdict, T = projective_equivalent(F3, image)
    assert verdict
    assert apply_transform(T, F3).point_set() == image.point_set()
    # the witness is the frame transform from the anchor, the first
    # general-position quadruple of F3, to the points it maps them to
    stats = analyze_lines(F3)
    anchor = min(geom._general_quadruples(stats, len(F3)))
    src = [F3[i] for i in anchor]
    dst = [ProjectivePoint(F3.field, mat3_vec(T, p.coeffs)) for p in src]
    assert all(q in image for q in dst)
    assert T == frame_transform(src, dst)


def test_collinearity_is_read_from_the_inventory(monkeypatch):
    calls = {"line_through": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(geom, "line_through", counted("line_through", geom.line_through))
    Z = example_quartic_config()
    analyze_lines(Z)
    # every one of the C(9, 2) pairs is joined once
    assert calls == {"line_through": 36}
    image = apply_transform([[1, 2, 0], [0, 1, 1], [1, 0, 3]], Z)
    assert projective_equivalent(Z, image)[0]
    # equivalence joins each configuration's pairs once, for its inventory
    assert calls == {"line_through": 3 * 36}


def test_rational_incidence_and_equivalence_make_no_scalar_arithmetic(monkeypatch):
    Z = example_quartic_config()
    image = apply_transform([[2, -1, 1], [1, 1, 0], [0, 3, 1]], Z)
    nine = random_config(9, 5, "no-scalars")
    calls = {"__mul__": 0, "__rmul__": 0, "inverse": 0}

    def counted(name):
        fn = getattr(Scalar, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(Scalar, name, counted(name))
    assert sum(analyze_lines(nine).histogram.values()) > 0
    assert projective_equivalent(Z, image)[0]
    T = frame_transform(Z.points[:4], image.points[:4])
    assert calls == {"__mul__": 0, "__rmul__": 0, "inverse": 0}
    assert apply_transform(T, Z).points == image.points


def test_equivalence_reflexive_symmetric():
    rng = random.Random("eqsym")
    for t in range(4):
        Z1 = random_config(6, 5, ("eq", t))
        assert projective_equivalent(Z1, Z1)[0]
        T = [[1, 1, 0], [0, 2, 1], [0, 0, 1]]
        Z2 = apply_transform(T, Z1)
        a, _ = projective_equivalent(Z1, Z2)
        b, _ = projective_equivalent(Z2, Z1)
        assert a and b
    Z1 = random_config(5, 4, "eqa")
    Z2 = random_config(5, 4, "eqb")
    a, _ = projective_equivalent(Z1, Z2)
    b, _ = projective_equivalent(Z2, Z1)
    assert a == b


def test_any_two_triangles_are_equivalent():
    f5 = make_field("cyclotomic", 5)
    z = primitive_root(f5)
    pairs = [
        ([(1, 0, 0), (0, 1, 0), (0, 0, 1)], [(1, 2, 3), (2, -1, 1), (0, 5, 7)], QQ),
        ([(1, 1, 1), (1, -1, 2), (3, 0, 1)], [(0, 1, 1), (1, 0, 1), (1, 1, 0)], QQ),
        ([(1, z, 0), (0, 1, z * z), (z, 0, 1)], [(1, 1, 1), (1, 0, z), (0, 1, 1)], f5),
    ]
    for pts1, pts2, field in pairs:
        Z1, Z2 = PointConfiguration(field, pts1), PointConfiguration(field, pts2)
        for A, B in ((Z1, Z2), (Z2, Z1)):
            verdict, T = projective_equivalent(A, B)
            assert verdict and not mat3_det(T).is_zero()
            assert apply_transform(T, A).point_set() == B.point_set()
            # T = A2 adj(A1) keeps the order of the points
            assert [ProjectivePoint(field, mat3_vec(T, p.coeffs)) for p in A] == list(B)


def test_equivalence_without_a_general_quadruple_stays_an_input_error():
    triangle = PointConfiguration(QQ, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    collinear = PointConfiguration(QQ, [(1, 0, 0), (0, 1, 0), (1, 1, 0)])
    # a triangle and three collinear points have different line histograms
    assert projective_equivalent(triangle, collinear) == (False, None)
    other = PointConfiguration(QQ, [(1, 0, 0), (0, 1, 0), (1, 2, 0)])
    with pytest.raises(DegenerateInputError, match="collinear"):
        projective_equivalent(collinear, other)
    # three points on a line and one off it: no general-position quadruple
    near1 = PointConfiguration(QQ, [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)])
    near2 = PointConfiguration(QQ, [(1, 0, 0), (0, 1, 0), (1, 3, 0), (1, 1, 1)])
    with pytest.raises(DegenerateInputError, match="general-position quadruple"):
        projective_equivalent(near1, near2)


def test_equivalence_requires_matching_sizes_and_fields():
    Z1 = random_config(5, 4, 1)
    Z2 = random_config(6, 4, 2)
    with pytest.raises(ValueError):
        projective_equivalent(Z1, Z2)


def test_configuration_rejects_duplicates():
    with pytest.raises(DegenerateInputError):
        PointConfiguration(QQ, [(1, 0, 0), (2, 0, 0)])


def test_configuration_json_round_trip():
    for Z in (example_quartic_config(), dual_fermat(3)):
        again = PointConfiguration.from_dict(Z.to_dict())
        assert again == Z
