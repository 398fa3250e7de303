"""Named configurations, parametrized families, and search generators."""

import random
from fractions import Fraction

import pytest

from fatpoints import (
    FamilyDomainError,
    ProjectivePoint,
    ProjectiveLine,
    QQ,
    Scalar,
    SearchSpace,
    analyze_lines,
    dual_fermat,
    example_quartic_config,
    example_quartic_variant,
    family,
    grid_configs,
    line_through,
    make_field,
    meet,
    primitive_root,
    random_config,
)


def test_example_quartic_exact_points():
    Z = example_quartic_config()
    expected = [
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
    assert len(Z) == 9
    assert list(Z.points) == [ProjectivePoint(QQ, p) for p in expected]
    assert analyze_lines(Z).rich_count(4) == 3


def test_example_quartic_synthetic_construction():
    Z = example_quartic_config()
    z = Z.points
    # the fifth point is the meet of the two inner diagonals
    assert z[4] == meet(line_through(z[0], z[2]), line_through(z[1], z[3]))
    assert z[5] == meet(line_through(z[0], z[1]), line_through(z[2], z[3]))
    assert z[6] == meet(line_through(z[0], z[3]), line_through(z[1], z[2]))
    # the last two points lie on the line joining the sixth and seventh
    extra = line_through(z[5], z[6])
    assert line_through(z[5], z[7]) == extra == line_through(z[5], z[8])


def test_example_variants_cover_paper_order():
    assert example_quartic_variant((6, 7)).point_set() == example_quartic_config().point_set()
    v57 = example_quartic_variant((5, 7))
    v56 = example_quartic_variant((5, 6))
    assert len(v57) == len(v56) == 9
    assert v57.point_set() != v56.point_set()
    with pytest.raises(ValueError):
        example_quartic_variant((4, 7))


def test_dual_fermat_counts_and_stats():
    F3 = dual_fermat(3)
    assert len(F3) == 9
    stats = analyze_lines(F3)
    assert stats.histogram == {3: 12}
    for i in range(9):
        assert len(stats.lines_through(i)) == 4
    assert len(dual_fermat(5)) == 15
    with pytest.raises(ValueError):
        dual_fermat(2)


def test_dual_fermat_points_need_no_inverse(monkeypatch):
    # every dual Fermat point is given with first nonzero coordinate 1, so
    # its canonical triple takes no Scalar inverse
    calls = [0]
    inverse = Scalar.inverse

    def counted(self):
        calls[0] += 1
        return inverse(self)

    monkeypatch.setattr(Scalar, "inverse", counted)
    F7 = dual_fermat(7)
    assert len(F7) == 21 and calls[0] == 0
    # a point scaled away from 1 is still made monic
    z = primitive_root(F7.field)
    assert ProjectivePoint(F7.field, (z, -z * z, 0)) == F7.points[1]
    assert calls[0] == 1


def test_dual_fermat_symmetry():
    # swapping the first two coordinates permutes the configuration
    F3 = dual_fermat(3)
    field = F3.field
    swapped = {
        ProjectivePoint(field, (p.coeffs[1], p.coeffs[0], p.coeffs[2])) for p in F3.points
    }
    assert swapped == set(F3.points)
    z = primitive_root(field)
    scaled = {
        ProjectivePoint(field, (p.coeffs[0], z * p.coeffs[1], p.coeffs[2] * z))
        for p in F3.points
    }
    # multiplying y and z by the root fixes the set as well
    assert scaled == set(F3.points)


def test_w5_family():
    W = family("w5", {"a": 2})
    expected = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 0)]
    assert list(W.points) == [ProjectivePoint(QQ, p) for p in expected]
    stats = analyze_lines(W)
    assert stats.rich_count(3) == 1
    with pytest.raises(FamilyDomainError):
        family("w5", {"a": 0})
    with pytest.raises(FamilyDomainError):
        family("w5", {"a": 1})


def test_prop31_family_collinearity():
    for a, b in ((3, 5), (Fraction(-1, 2), Fraction(1, 4)), (2, -3)):
        Z = family("prop31", {"a": a, "b": b})
        assert len(Z) == 9
        af, bf = Fraction(a), Fraction(b)
        lq = ProjectiveLine(QQ, (1 - bf, af - 1, bf - af))
        stats = analyze_lines(Z)
        assert dict(stats.lines)[lq] == (5, 6, 7, 8)  # Q1, Q2, Q3, Q4
        assert stats.rich_count(4) == 2
    for bad in ({"a": 0, "b": 2}, {"a": 2, "b": 1}, {"a": 3, "b": 3}):
        with pytest.raises(FamilyDomainError):
            family("prop31", bad)


def test_prop33_case3_family():
    Z = family("prop33-case3", {"a": 2, "b": 3})
    assert len(Z) == 9
    stats = analyze_lines(Z)
    assert stats.rich_count(4) == 1  # only the z = 0 line
    # reciprocal parameters land the fourth point at [a, 1, 0]
    a = Fraction(5)
    Z = family("prop33-case3", {"a": a, "b": 1 / a})
    assert Z.points[3] == ProjectivePoint(QQ, (a, 1, 0))
    with pytest.raises(FamilyDomainError) as err:
        family("prop33-case3", {"a": 1, "b": 5})
    assert "4-rich" in str(err.value)
    with pytest.raises(FamilyDomainError) as err:
        family("prop33-case3", {"a": -1, "b": 1})
    assert "{a,b}" in str(err.value)
    for bad in ({"a": 0, "b": 2}, {"a": 2, "b": 2}):
        with pytest.raises(FamilyDomainError):
            family("prop33-case3", bad)


def test_prop33_first_family():
    Z = family("prop33-first", {"a": 2})
    assert len(Z) == 9
    # x = 0 carries the four R points, and no other
    lr = ProjectiveLine(QQ, (1, 0, 0))
    assert dict(analyze_lines(Z).lines)[lr] == (0, 1, 2, 3)
    # over Q(zeta_6) the parameter satisfies a^2 - a + 1 = 0 and the third
    # Q point joins the Q line y - a z = 0
    f6 = make_field("cyclotomic", 6)
    z6 = primitive_root(f6)
    assert (z6 * z6 - z6 + f6.one).is_zero()
    Z6 = family("prop33-first", {"a": z6})
    lq = ProjectiveLine(f6, (f6.zero, f6.one, -z6))
    assert dict(analyze_lines(Z6).lines)[lq] == (6, 7, 8)
    # while no rational parameter can do that
    Zr = family("prop33-first", {"a": 3})
    lqr = ProjectiveLine(QQ, (0, 1, -3))
    assert line_through(Zr.points[7], Zr.points[8]) == lqr
    assert line_through(Zr.points[6], Zr.points[7]) != lqr
    with pytest.raises(FamilyDomainError):
        family("prop33-first", {"a": 1})


def test_figure2_family_incidences():
    collinear_triples = [(0, 1, 2), (2, 3, 4), (0, 3, 5), (1, 4, 5), (1, 3, 6)]
    for a in (Fraction(2), Fraction(-1), Fraction(1, 3)):
        Z = family("figure2-cubic", {"a": a})
        assert len(Z) == 7
        stats = analyze_lines(Z)
        for i, j, k in collinear_triples:
            assert line_through(Z[i], Z[j]) == line_through(Z[i], Z[k]), (a, (i, j, k))
    # the sixth incidence holds exactly at the degenerate parameter -1
    Zm1 = family("figure2-cubic", {"a": -1})
    assert line_through(Zm1[0], Zm1[4]) == line_through(Zm1[0], Zm1[6])
    Z2 = family("figure2-cubic", {"a": 2})
    assert line_through(Z2[0], Z2[4]) != line_through(Z2[0], Z2[6])
    f6 = make_field("cyclotomic", 6)
    Z6 = family("figure2-cubic", {"a": primitive_root(f6)})
    assert len(Z6) == 7
    with pytest.raises(FamilyDomainError):
        family("figure2-cubic", {"a": 0})


def test_family_dispatch():
    assert family("example-quartic") == example_quartic_config()
    assert family("fermat", {"n": 3}) == dual_fermat(3)
    with pytest.raises(ValueError, match="^unknown family 'unknown-family'$"):
        family("unknown-family", {"a": 2})
    # a missing parameter is named, before any coordinate is built
    missing = (
        ("w5", {}, "a"),
        ("w5", {"b": 2}, "a"),
        ("prop31", {"a": 2}, "b"),
        ("prop31", {"b": 2}, "a"),
        ("prop33-case3", {"a": 2}, "b"),
        ("prop33-first", {}, "a"),
        ("figure2-cubic", {}, "a"),
        ("fermat", {}, "n"),
    )
    for family_id, params, name in missing:
        message = f"^family '{family_id}' needs the parameter '{name}'$"
        with pytest.raises(ValueError, match=message):
            family(family_id, params)
    # a parameter the family does not read is made a scalar all the same
    with pytest.raises(ValueError):
        family("w5", {"a": 2, "b": "1/0"})
    with pytest.raises(TypeError):
        family("prop33-first", {"a": 2, "c": object()})
    # example-quartic reads no parameter, but coerces every given one too
    with pytest.raises(ValueError, match="^bad rational literal 'foo'$"):
        family("example-quartic", {"a": "foo"})
    assert family("example-quartic", {"a": "2"}) == example_quartic_config()


# every excluded value of every family, with the constraint it names; where
# two exclusions hold at once the one tested first is named
_CASE3_ON_LINE = "an R point lands on the S1 S2 Q3 line, adding a second 4-rich line"
EXCLUDED = [
    ("w5", {"a": 0}, "w5 needs a != 0 (B5 would collide with B1)"),
    ("w5", {"a": 1}, "w5 needs a != 1 (B5 would put a second 3-rich line through B3 B4)"),
    ("prop31", {"a": 0, "b": 2}, "prop31 needs a != 0 (R4 degenerates)"),
    ("prop31", {"a": 1, "b": 2}, "prop31 needs a != 1 (Q1/Q2 degenerate)"),
    ("prop31", {"a": 2, "b": 0}, "prop31 needs b != 0 (R4 degenerates)"),
    ("prop31", {"a": 2, "b": 1}, "prop31 needs b != 1 (Q1/Q2 degenerate)"),
    ("prop31", {"a": 3, "b": 3}, "prop31 needs a != b (Q1 and R4 degenerate)"),
    ("prop31", {"a": 0, "b": 1}, "prop31 needs a != 0 (R4 degenerates)"),
    ("prop33-case3", {"a": -1, "b": 1},
     "prop33-case3 excludes {a,b} = {-1,1}: it rebuilds the unexpected-quartic configuration"),
    ("prop33-case3", {"a": 1, "b": -1},
     "prop33-case3 excludes {a,b} = {-1,1}: it rebuilds the unexpected-quartic configuration"),
    ("prop33-case3", {"a": 0, "b": 2},
     "prop33-case3 needs a != 0 (R point collides with a frame point)"),
    ("prop33-case3", {"a": 1, "b": 5}, f"prop33-case3 needs a != 1 ({_CASE3_ON_LINE})"),
    ("prop33-case3", {"a": 2, "b": 0},
     "prop33-case3 needs b != 0 (R point collides with a frame point)"),
    ("prop33-case3", {"a": 5, "b": 1}, f"prop33-case3 needs b != 1 ({_CASE3_ON_LINE})"),
    ("prop33-case3", {"a": 2, "b": 2}, "prop33-case3 needs a != b (R3 = R4)"),
    ("prop33-case3", {"a": 1, "b": 1}, f"prop33-case3 needs a != 1 ({_CASE3_ON_LINE})"),
    ("prop33-first", {"a": 0}, "prop33-first needs a != 0 (S2 = Q3)"),
    ("prop33-first", {"a": 1}, "prop33-first needs a != 1 (R4 = R1, Q2 = S1)"),
    ("figure2-cubic", {"a": 0}, "figure2-cubic needs a != 0 (Z2 = Z7)"),
    ("figure2-cubic", {"a": 1}, "figure2-cubic needs a != 1 (Z1 = Z4)"),
    ("figure2-cubic", {"a": "1", "b": "2/3"}, "figure2-cubic needs a != 1 (Z1 = Z4)"),
]  # fmt: skip


@pytest.mark.parametrize("family_id, params, constraint", EXCLUDED)
def test_every_excluded_value_names_its_constraint(family_id, params, constraint):
    with pytest.raises(FamilyDomainError) as err:
        family(family_id, params)
    assert err.value.constraint == constraint
    assert str(err.value) == f"excluded parameter value: {constraint}"
    # the same value as a scalar of Q(zeta_6) is excluded the same way
    f6 = make_field("cyclotomic", 6)
    with pytest.raises(FamilyDomainError) as err:
        family(family_id, {k: f6.scalar(v) for k, v in params.items()})
    assert err.value.constraint == constraint


def test_random_config_deterministic():
    a = random_config(9, 100, 7)
    b = random_config(9, 100, 7)
    assert a == b
    c = random_config(9, 100, 8)
    assert a != c
    assert len(set(a.points)) == 9


def test_random_config_refuses_more_points_than_its_box():
    # the box of height 1 holds 3^2 = 9 integer points
    assert len(set(random_config(9, 1, "full").points)) == 9
    with pytest.raises(ValueError):
        random_config(10, 1, "full")
    # a negative height is no box: (2 * -5 + 1)^2 = 81 would let 3 points
    # through the count
    with pytest.raises(ValueError, match="height must be nonnegative"):
        random_config(3, -5, "negative")


def test_grid_configs_exhaustive_count():
    space = SearchSpace(n=2, r=3)
    configs = list(grid_configs(space))
    assert len(configs) == 84
    assert len({tuple(Z.points) for Z in configs}) == 84


def test_grid_configs_constraint_soundness():
    space = SearchSpace(n=3, r=9, constraint="4-rich-line", seed=1, limit=25)
    got = list(grid_configs(space))
    assert len(got) == 25
    for Z in got:
        assert analyze_lines(Z).rich_count(4) >= 1


def test_grid_configs_deterministic_with_seed():
    space = SearchSpace(n=3, r=9, constraint="4-rich-line", seed=3, limit=10)
    a = [tuple(Z.points) for Z in grid_configs(space)]
    b = [tuple(Z.points) for Z in grid_configs(space)]
    assert a == b


def test_search_space_validation():
    with pytest.raises(ValueError):
        SearchSpace(n=0, r=3)
    with pytest.raises(ValueError):
        SearchSpace(n=2, r=2)
    with pytest.raises(ValueError):
        SearchSpace(n=2, r=3, limit=-1)
    # an empty stream would pass a uniqueness claim on nothing
    with pytest.raises(ValueError):
        SearchSpace(n=2, r=3, limit=0)
    with pytest.raises(ValueError):
        SearchSpace(n=1, r=9)
    assert SearchSpace(n=2, r=9).r == 9  # every point of the grid
    with pytest.raises(ValueError):
        list(grid_configs(SearchSpace(n=2, r=3, constraint="no-such")))
