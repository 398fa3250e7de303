"""Field arithmetic: cyclotomic polynomials, canonical forms, axioms, grammar."""

import copy
import pickle
import random
import sys
import threading
from fractions import Fraction
from math import gcd, lcm

import pytest

from fatpoints import (
    Field,
    FieldMismatchError,
    QQ,
    cyclotomic_polynomial,
    make_field,
    parse_scalar,
    primitive_root,
    render_scalar,
)
import fatpoints.field as field_module
from fatpoints.field import _divmod_monic


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(5) == (1, 1, 1, 1, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_make_field():
    f3 = make_field("cyclotomic", 3)
    assert f3.degree == 2
    assert f3.modulus == (1, 1, 1)
    f6 = make_field("cyclotomic", 6)
    assert f6.modulus == (1, -1, 1)
    assert make_field("rational").kind == "rational"
    with pytest.raises(ValueError):
        make_field("cyclotomic", 0)
    with pytest.raises(ValueError):
        make_field("cyclotomic")
    # one Field per kind and conductor, however it is asked for or copied
    assert make_field("cyclotomic", 3) is f3 is Field("cyclotomic", 3) is Field.from_dict(f3.to_dict())
    assert make_field("rational") is QQ is Field("rational") is Field.from_dict({"type": "rational"})
    for f in (QQ, f3):
        assert copy.copy(f) is f and copy.deepcopy(f) is f and pickle.loads(pickle.dumps(f)) is f
    assert make_field("cyclotomic", 1) is not QQ


def test_racing_builds_keep_one_field():
    # threads that ask at once for a field not built yet all get one object
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for n in (97, 101, 103):
            barrier, found = threading.Barrier(8), []

            def build(n=n, barrier=barrier, found=found):
                barrier.wait(timeout=10)
                found.append(Field("cyclotomic", n))

            threads = [threading.Thread(target=build) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            assert len(found) == 8 and all(f is found[0] for f in found)
    finally:
        sys.setswitchinterval(switch)


def test_racing_draws_keep_each_prime_once():
    # two threads that draw a conductor's next primes at once store each
    # prime once, in the serial order: a prime stored twice would repeat an
    # earlier one, and CRT over both would fail
    f5 = Field("cyclotomic", 5)
    expected = [f5.certificate_prime(k)[0] for k in range(4)]
    saved = field_module._certificate_primes.pop(5)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(30):
            field_module._certificate_primes.pop(5, None)
            barrier, found = threading.Barrier(2), []

            def draw():
                barrier.wait(timeout=10)
                found.append(f5.certificate_prime(3)[0])

            threads = [threading.Thread(target=draw) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            assert found == [expected[3]] * 2
            assert [p for p, _, _ in field_module._certificate_primes[5]] == expected
    finally:
        sys.setswitchinterval(switch)
        field_module._certificate_primes[5] = saved


def test_conductors_one_and_two_collapse_to_rational_values():
    for n, expected in ((1, 1), (2, -1)):
        f = make_field("cyclotomic", n)
        assert f.degree == 1
        z = primitive_root(f)
        assert z == f.scalar(expected)
        assert z.is_rational()


def test_scalar_arith_examples():
    half = QQ.scalar(Fraction(2, 4))
    assert half + QQ.scalar(Fraction(1, 4)) == QQ.scalar(Fraction(3, 4))
    f3 = make_field("cyclotomic", 3)
    z = primitive_root(f3)
    assert (z * z + z + 1).is_zero()
    f5 = make_field("cyclotomic", 5)
    z5 = primitive_root(f5)
    assert z5.inverse() == z5**4
    assert (z5**5) == f5.one


def test_primitive_root_orders():
    for n in range(1, 13):
        f = make_field("cyclotomic", n)
        z = primitive_root(f)
        assert z**n == f.one
        for k in range(1, n):
            assert z**k != f.one
    with pytest.raises(ValueError):
        primitive_root(QQ)


def test_division_by_zero_is_distinct():
    with pytest.raises(ZeroDivisionError):
        QQ.zero.inverse()
    f3 = make_field("cyclotomic", 3)
    with pytest.raises(ZeroDivisionError):
        f3.zero.inverse()


def test_mixed_fields_rejected():
    f3 = make_field("cyclotomic", 3)
    f5 = make_field("cyclotomic", 5)
    with pytest.raises(FieldMismatchError):
        primitive_root(f3) + primitive_root(f5)
    with pytest.raises(FieldMismatchError):
        QQ.one * primitive_root(f3)


def _random_scalar(field, rng):
    coeffs = [
        Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(field.degree)
    ]
    return field.from_coeffs(coeffs)


@pytest.mark.parametrize("spec", [("rational", 1), ("cyclotomic", 3), ("cyclotomic", 5)])
def test_field_axioms_on_random_triples(spec):
    kind, n = spec
    field = make_field(kind, n) if kind == "cyclotomic" else QQ
    rng = random.Random(f"axioms:{kind}:{n}")
    for _ in range(1000):
        a = _random_scalar(field, rng)
        b = _random_scalar(field, rng)
        c = _random_scalar(field, rng)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        if not a.is_zero():
            assert a * a.inverse() == field.one


def test_canonical_form_idempotent():
    f3 = make_field("cyclotomic", 3)
    rng = random.Random("canon")
    for _ in range(200):
        raw = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(5)]
        once = f3.from_coeffs(raw)
        twice = f3.from_coeffs(once.coeffs)
        assert once == twice
        assert len(once.coeffs) == f3.degree


def test_scalar_text_grammar():
    f3 = make_field("cyclotomic", 3)
    # z^2 reduces to -1-z over Q(zeta_3), so 1 - z^2 = 2 + z
    assert parse_scalar(f3, "1-z^2") == f3.from_coeffs([2, 1])
    assert parse_scalar(f3, "-2/3*z") == f3.from_coeffs([0, Fraction(-2, 3)])
    assert parse_scalar(f3, "z") == primitive_root(f3)
    assert parse_scalar(QQ, "-2/3") == QQ.scalar(Fraction(-2, 3))
    assert parse_scalar(QQ, "7") == QQ.scalar(7)
    with pytest.raises(ValueError):
        parse_scalar(QQ, "z")
    with pytest.raises(ValueError):
        parse_scalar(QQ, "1//2")
    with pytest.raises(ValueError):
        parse_scalar(f3, "")
    with pytest.raises(ValueError):
        parse_scalar(f3, "q+1")
    # a zero denominator is a malformed literal, not a division
    assert parse_scalar(QQ, "2/05") == QQ.scalar(Fraction(2, 5))
    for field, text in ((QQ, "2/0"), (QQ, "1/00"), (f3, "3/0*z"), (f3, "1+2/0*z^2")):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_scalar(field, text)


def test_render_parse_round_trip():
    f5 = make_field("cyclotomic", 5)
    rng = random.Random("roundtrip")
    for _ in range(300):
        s = _random_scalar(f5, rng)
        assert parse_scalar(f5, render_scalar(s)) == s
    for _ in range(100):
        s = _random_scalar(QQ, rng)
        assert parse_scalar(QQ, render_scalar(s)) == s


_INTEGRAL_FIELDS = [QQ] + [make_field("cyclotomic", n) for n in (2, 3, 5)]


@pytest.mark.parametrize("field", _INTEGRAL_FIELDS, ids=repr)
def test_integral_coordinates_round_trip(field):
    rng = random.Random(f"integral:{field!r}")
    assert field.clear_denominators([]) == ([], 1)
    assert field.from_integral([]) == []
    # all-int input, read once from a generator, comes back over den 1
    ints = [rng.randint(-9, 9) for _ in range(5)]
    coords, den = field.clear_denominators(x for x in ints)
    assert den == 1 and field.from_integral(coords) == [field.scalar(x) for x in ints]
    if field.degree == 1:
        assert coords == ints
    for size in (1, 2, 6):
        for _ in range(50):
            values = [_random_scalar(field, rng) for _ in range(size)]
            # plain ints and Fractions are legal input next to Scalars
            values[0] = rng.choice([values[0], rng.randint(-5, 5), Fraction(rng.randint(-5, 5), 7)])
            coords, den = field.clear_denominators(values)
            assert type(den) is int and den >= 1
            for c in coords:
                if field.degree == 1:
                    assert type(c) is int
                else:
                    assert len(c) == field.degree and all(type(x) is int for x in c)
            # the coordinates are the nonzero multiple den of the input ...
            scaled = field.from_integral(coords)
            assert scaled == [field.scalar(v) * den for v in values]
            # ... and over den they give the input back, in canonical form
            back = field.from_integral(coords, den)
            assert back == [field.scalar(v) for v in values]
            assert all(type(x) is Fraction for s in back for x in s.coeffs)


def _is_prime(q):
    return q > 1 and all(q % k for k in range(2, int(q**0.5) + 1))


def test_miller_rabin_is_exact_where_it_is_used():
    from fatpoints.field import _is_prime as miller_rabin

    assert [q for q in range(20000) if miller_rabin(q)] == [q for q in range(20000) if _is_prime(q)]
    # strong pseudoprimes to the bases 2 .. 23 and 2 .. 37, and the
    # Carmichael number 561, are composite; 2^61 - 1 and 2^89 - 1 are prime
    for q in (561, 3825123056546413051, 318665857834031151167461):
        assert not miller_rabin(q)
    assert miller_rabin(2**61 - 1) and miller_rabin(2**89 - 1)


_PRIME_FIELDS = [QQ] + [make_field("cyclotomic", n) for n in (2, 3, 4, 5, 6, 7, 8, 12)]


@pytest.mark.parametrize("field", _PRIME_FIELDS, ids=repr)
def test_certificate_primes_split_the_field(field):
    from fatpoints.field import _is_prime as miller_rabin

    n = field.conductor if field.degree > 1 else 1
    primes = [field.certificate_prime(k)[0] for k in range(4)]
    assert all(miller_rabin(p) and (p - 1) % n == 0 for p in primes)
    # prime 0 is the largest prime below 2^15 that is 1 mod n ...
    assert _is_prime(primes[0]) and primes[0] < 2**15
    assert not any(_is_prime(q) for q in range(primes[0] + n, 2**15, n))
    # ... and the others are the primes 1 mod n below 2^62, counting down
    assert primes[1:] == sorted(primes[1:], reverse=True) and primes[-1] > 2**61
    assert not any(miller_rabin(q) for q in range(primes[1] + n, 2**62, n))
    assert not any(miller_rabin(q) for q in range(primes[2] + n, primes[1], n))
    rng = random.Random(f"split:{field!r}")
    for k in range(2):
        p, images, lift = field.certificate_prime(k)
        # one map per root of Phi_n mod p, and lift inverts them all
        assert len(images) == field.degree
        for _ in range(30):
            x = tuple(rng.randint(-(10**40), 10**40) for _ in range(field.degree))
            x = x[0] if field.degree == 1 else x
            residues = [image([x])[0] for image in images]
            expected = x % p if field.degree == 1 else tuple(c % p for c in x)
            assert lift(residues) == expected


def _reference_inverse_vandermonde(roots, p):
    """The inverse of the Vandermonde matrix (w^k) of the roots mod p, by
    Gauss-Jordan on [V | I]: the reference for lift's closed form."""
    degree = len(roots)
    rows = [
        [pow(w, k, p) for k in range(degree)] + [int(i == j) for j in range(degree)]
        for i, w in enumerate(roots)
    ]
    for c in range(degree):
        r = next(r for r in range(c, degree) if rows[r][c])
        rows[c], rows[r] = rows[r], rows[c]
        inv = pow(rows[c][c], -1, p)
        rows[c] = [x * inv % p for x in rows[c]]
        for r in range(degree):
            f = rows[r][c]
            if r != c and f:
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[c])]
    return [row[degree:] for row in rows]


@pytest.mark.parametrize("n", [3, 5, 6, 7, 12, 15, 64])
def test_lift_is_the_inverse_vandermonde_matrix(n):
    # lift's closed form, Phi_n(x) / ((x - w) Phi_n'(w)) for the column of
    # the root w, against Gauss-Jordan elimination
    from fatpoints.field import _roots_of_unity

    field = make_field("cyclotomic", n)
    for k in range(2):
        p, _, lift = field.certificate_prime(k)
        inverse = _reference_inverse_vandermonde(_roots_of_unity(n, p), p)
        for i in range(field.degree):
            unit = [int(i == j) for j in range(field.degree)]
            assert lift(unit) == tuple(row[i] for row in inverse)


@pytest.mark.parametrize("field", _INTEGRAL_FIELDS, ids=repr)
def test_integral_operations_follow_the_layout(field):
    # Field.unit, Field.scale and Field.mul act on the coordinates that
    # clear_denominators gives: ints at degree 1, Q(zeta_2) included, and
    # int tuples above
    rng = random.Random(f"integral-ops:{field!r}")
    (one, zero), den = field.clear_denominators([1, 0])
    assert den == 1 and (field.unit, field.scale(field.unit, 0)) == (one, zero)
    assert type(field.unit) is (int if field.degree == 1 else tuple)
    for _ in range(50):
        a, b = _random_scalar(field, rng), _random_scalar(field, rng)
        (x, y), den = field.clear_denominators([a, b])
        c = rng.randint(-50, 50)
        assert field.from_integral([field.mul(x, y)], den * den) == [a * b]
        assert field.from_integral([field.scale(x, c)], den) == [a * c]


@pytest.mark.parametrize("field", [QQ] + [make_field("cyclotomic", n) for n in (2, 5)], ids=repr)
def test_layout_helpers_round_trip(field):
    # Field.flat gives one element's coordinates as an int tuple, Field.group
    # regroups a flattened list, and Field.add is the sum of coordinates
    rng = random.Random(f"layout-helpers:{field!r}")
    values = [_random_scalar(field, rng) for _ in range(20)]
    coords, den = field.clear_denominators(values)
    flat = [c for x in coords for c in field.flat(x)]
    assert all(type(c) is int for c in flat) and len(flat) == field.degree * len(coords)
    assert field.group(flat) == coords
    for a, b, x, y in zip(values, values[1:], coords, coords[1:]):
        assert field.from_integral([field.add(x, y)], den) == [a + b]


@pytest.mark.parametrize("field", _PRIME_FIELDS, ids=repr)
def test_residue_map_is_a_ring_homomorphism(field):
    # every map of the small prime 0, where ranks are tested, and of the
    # first prime below 2^62 takes 1 to 1 and products to products
    rng = random.Random(f"residues:{field!r}")
    mul = int.__mul__ if field.degree == 1 else field.mul

    def element():
        coords = tuple(rng.randint(-(10**40), 10**40) for _ in range(field.degree))
        return coords[0] if field.degree == 1 else coords

    one = field.clear_denominators([1])[0][0]
    for k in range(2):
        p, images, _ = field.certificate_prime(k)
        for image in images:
            assert image([one]) == [1]
            for _ in range(100 // len(images) + 1):
                x, y = element(), element()
                (ix, iy), (ixy,) = image([x, y]), image([mul(x, y)])
                assert all(0 <= r < p for r in (ix, iy, ixy))
                assert ixy == ix * iy % p


@pytest.mark.parametrize("field", _INTEGRAL_FIELDS[1:], ids=repr)
def test_product_is_the_reduced_schoolbook_product(field):
    rng = random.Random(f"product:{field!r}")
    for _ in range(200):
        a = _random_scalar(field, rng)
        b = _random_scalar(field, rng)
        wide = [Fraction(0)] * (2 * field.degree - 1)
        for i, x in enumerate(a.coeffs):
            for j, y in enumerate(b.coeffs):
                wide[i + j] += x * y
        product = a * b
        assert product == field.from_coeffs(wide)
        assert all(type(x) is Fraction for x in product.coeffs)


def _reference_invert_mod(coeffs, modulus):
    # extended Euclid in Q[z] for gcd(poly, Phi_n) = 1: the inverse that
    # Scalar.inverse computed before the integer norm route
    def degree(p):
        d = len(p) - 1
        while d >= 0 and not p[d]:
            d -= 1
        return d

    r0 = [Fraction(m) for m in modulus]
    r1 = [Fraction(c) for c in coeffs]
    s0, s1 = [Fraction(0)], [Fraction(1)]
    while degree(r1) > 0:
        d0, d1 = degree(r0), degree(r1)
        q = [Fraction(0)] * (d0 - d1 + 1)
        rr = list(r0)
        while degree(rr) >= d1:
            dr = degree(rr)
            c = rr[dr] / r1[d1]
            q[dr - d1] += c
            for i in range(d1 + 1):
                rr[i + dr - d1] -= c * r1[i]
        r0, r1 = r1, rr
        prod = [Fraction(0)] * (len(q) + len(s1) - 1)
        for i, qi in enumerate(q):
            if qi:
                for j, sj in enumerate(s1):
                    if sj:
                        prod[i + j] += qi * sj
        ns = [Fraction(0)] * max(len(s0), len(prod))
        for i in range(len(ns)):
            ns[i] = (s0[i] if i < len(s0) else 0) - (prod[i] if i < len(prod) else 0)
        s0, s1 = s1, ns
    c = r1[0]
    deg = len(modulus) - 1
    inv = [x / c for x in s1[:deg]]
    return inv + [Fraction(0)] * (deg - len(inv))


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 9, 12, 15])
def test_integral_inverse_is_the_lowest_terms_inverse(n):
    field = make_field("cyclotomic", n)
    deg = field.degree
    rng = random.Random(f"inverse:{n}")
    with pytest.raises(ArithmeticError):
        field.integral_inverse((0,) * deg)
    checked = 0
    while checked < 300:
        height = rng.choice([1, 3, 100, 10**12])
        x = tuple(rng.randint(-height, height) for _ in range(deg))
        if checked % 3 == 0:
            # a common integer factor, which the norm carries to a power
            x = tuple(c * rng.choice([2, 6, 12, 35, 10**6]) for c in x)
        if not any(x):
            continue
        num, den = field.integral_inverse(x)
        assert field.mul(x, num) == (den,) + (0,) * (deg - 1)
        assert den > 0 and gcd(den, *num) == 1
        ref = _reference_invert_mod(x, field.modulus)
        ref_den = lcm(*[c.denominator for c in ref])
        assert (num, den) == (tuple(int(c * ref_den) for c in ref), ref_den)
        checked += 1


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 8, 12])
def test_conjugate_is_the_galois_action(n):
    # sigma_k sends z to z^k and is a ring automorphism of Z[zeta_n]:
    # it respects products, composes as sigma_j sigma_k = sigma_(jk mod n),
    # and is the identity on the integers; conjugations holds every unit
    # k mod n but 1, none at degree 1, where Q(zeta_2) = Q
    field = make_field("cyclotomic", n)
    units = [k for k in range(2, n) if gcd(k, n) == 1]
    assert field.conjugations == (tuple(units) if field.degree > 1 else ())
    assert QQ.conjugations == ()
    rng = random.Random(f"conjugate:{n}")
    deg, unit = field.degree, field.unit
    z = field.flat(primitive_root(field).coeffs) if field.degree > 1 else None
    for k in field.conjugations:
        assert field.conjugate(z, k) == field.flat((primitive_root(field) ** k).coeffs)
        assert field.conjugate(field.scale(unit, 7), k) == field.scale(unit, 7)
        x, y = (tuple(rng.randint(-50, 50) for _ in range(deg)) for _ in range(2))
        assert field.conjugate(field.mul(x, y), k) == field.mul(field.conjugate(x, k), field.conjugate(y, k))
        for j in field.conjugations:
            jk = j * k % n
            twice = field.conjugate(field.conjugate(x, k), j)
            assert twice == (x if jk == 1 else field.conjugate(x, jk))
        # Fraction coordinates conjugate alike
        half = tuple(Fraction(c, 2) for c in x)
        assert field.conjugate(half, k) == tuple(Fraction(c, 2) for c in field.conjugate(x, k))


def test_divmod_monic_matches_sympy():
    sympy = pytest.importorskip("sympy")
    z = sympy.Symbol("z")
    rng = random.Random("divmod-monic")

    def as_poly(coeffs):
        values = [sympy.Rational(Fraction(c).numerator, Fraction(c).denominator) for c in coeffs]
        return sympy.Poly(sum((c * z**i for i, c in enumerate(values)), sympy.S.Zero), z, domain="QQ")

    moduli = [cyclotomic_polynomial(n) for n in (1, 3, 5, 8, 12, 15)]
    moduli += [[rng.randint(-9, 9) for _ in range(rng.randint(1, 6))] + [1] for _ in range(30)]
    for den in moduli:
        for _ in range(6):
            size = rng.randint(0, 12)
            if rng.random() < 0.5:
                num = [rng.randint(-10**6, 10**6) for _ in range(size)]
            else:
                num = [Fraction(rng.randint(-99, 99), rng.randint(1, 99)) for _ in range(size)]
            quot, rem = _divmod_monic(num, den)
            assert len(rem) == len(den) - 1
            expected_quot, expected_rem = sympy.div(as_poly(num), as_poly(den))
            assert as_poly(quot) == expected_quot and as_poly(rem) == expected_rem
            if all(type(c) is int for c in num):
                assert all(type(c) is int for c in quot + rem)
