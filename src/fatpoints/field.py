"""Exact scalar arithmetic over Q and over cyclotomic extensions Q(zeta_n).

A scalar is stored as a vector of rational coefficients in the power basis
1, z, ..., z^(phi(n)-1), reduced modulo the n-th cyclotomic polynomial Phi_n.
The rational field is the degenerate case of vector length one; conductors
1 and 2 also collapse to plain rational values since phi(1) = phi(2) = 1.

Scalars are immutable and canonical: Fraction keeps gcd(num, den) = 1 with a
positive denominator, and the representative polynomial always has degree
below phi(n).  Equality of scalars therefore agrees with field equality.

This module is the only one that knows that layout, and the layout of
integral coordinates, on which exact elimination elsewhere works: ints when
the degree phi(n) is 1, int tuples in the power basis otherwise.
Field.clear_denominators turns scalars into integral coordinates over one
common denominator, and Field.from_integral turns them back.  Field.mul,
Field.scale, Field.add, Field.unit, Field.flat and Field.group are the
product, the int multiple, the sum, the coordinates of 1, one element's
coordinates as an int tuple and the inverse of flattening, so the condition
rows and the certificates are written once for every field.  Above degree
1, Field.mul is also the one product modulo Phi_n that Scalar
multiplication uses, on Fraction tuples.  Field.conjugate is the one
Galois action, sigma_k sending z to z^k, for each k of
Field.conjugations.  Field.integral_inverse is the one inverse over
Q(zeta_n), and serves Scalar division only, as no rank over Q(zeta_n)
divides by a pivot: x times the product of its other Galois conjugates is
the norm N(x), a nonzero integer, so 1/x is that product over N(x), all
in integers.
Field.certificate_prime is the one sequence of primes p = 1 (mod n): the
first below 2^15, the rest below 2^62.  Its maps take integral coordinates
to residues mod p, in the ring Residues(p), and its lift, the inverse
Vandermonde matrix of the roots in closed form, takes residues back to
power-basis coordinates mod p.

Nothing in this module (or anything built on it) ever touches floating
point: rank decisions downstream must be exact.

The text grammar used by configuration files and the CLI:

    rational    -?DIGITS(/DIGITS)?            e.g.  "3", "-2/3"
    cyclotomic  polynomial in the symbol z    e.g.  "1-z^2", "-2/3*z"

Cyclotomic input is reduced modulo Phi_n on parse, so "z^4" is legal over
Q(zeta_3) and comes back as the reduced representative.
"""

from __future__ import annotations

import itertools
import operator
import re
import threading
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm


class FieldMismatchError(TypeError):
    """Combination of scalars from two different fields (never coerced)."""


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n, constant term first, monic.

    Computed by exact division of z^n - 1 by the product of Phi_d over the
    proper divisors d of n.
    """
    if n < 1:
        raise ValueError("conductor must be a positive integer")
    num = [-1] + [0] * (n - 1) + [1]
    for d in _divisors(n)[:-1]:
        num, rem = _divmod_monic(num, cyclotomic_polynomial(d))
        if any(rem):
            raise ArithmeticError("inexact polynomial division")
    return tuple(num)


def _divmod_monic(num, den) -> tuple[list, list]:
    """(quotient, remainder) of num by the monic den, coefficient lists with
    the constant term first; the remainder has len(den) - 1 entries, ints or
    Fractions as the input has."""
    dd = len(den) - 1
    rem = list(num) + [0] * (dd - len(num))
    quot = [0] * (len(rem) - dd)
    for k in range(len(rem) - 1, dd - 1, -1):
        c = rem[k]
        quot[k - dd] = c
        if c:
            for i in range(dd):
                rem[k - dd + i] -= c * den[i]
    return quot, rem[:dd]


_FIELDS: dict = {}  # (kind, conductor) -> the one Field of that kind and conductor


class Field:
    """Descriptor for Q or Q(zeta_n); creates and owns Scalar values.

    There is one Field per kind and conductor: Field(...), make_field and
    Field.from_dict all return it, so fields compare and hash by identity,
    and a copy or an unpickled field is the same object.  Mixed-field
    arithmetic is rejected rather than coerced, so callers building
    configurations must pick one field up front.

    It owns the integral coordinates too, by degree (ints at degree 1, as
    for Q(zeta_2); power-basis int tuples above): mul is their product,
    scale(x, c) the multiple by an int c, add their sum, unit the coordinates
    of 1, flat(x) x as an int tuple and group the inverse of flattening.
    certificate_start is the first prime a residue certificate draws: 0 at
    degree 1, where the full-rank test eliminated its one map, and 1 above,
    where prime 0 has phi(n) maps for 15 bits.  conjugations holds the
    units k mod n other than 1, in increasing order, one per Galois
    automorphism sigma_k other than the identity (conjugate): none at
    degree 1.
    """

    __slots__ = ("kind", "conductor", "degree", "modulus", "zero", "one", "mul", "scale",
                 "add", "unit", "flat", "group", "certificate_start", "conjugations")

    def __new__(cls, kind: str, *conductor: int):
        """The field of this kind and conductor, 1 when none is given and
        for Q; the first call builds it, and two racing builds keep one."""
        if kind not in ("rational", "cyclotomic"):
            raise ValueError(f"unknown field kind {kind!r}")
        (n,) = conductor or (1,)
        key = (kind, 1 if kind == "rational" else n)
        if key in _FIELDS:
            return _FIELDS[key]
        if key[1] < 1:
            raise ValueError("conductor must be a positive integer")
        self = object.__new__(cls)
        self.kind, self.conductor = key
        self.modulus = cyclotomic_polynomial(n) if kind == "cyclotomic" else None
        deg = self.degree = len(self.modulus) - 1 if self.modulus else 1
        if deg == 1:
            self.mul, self.scale, self.add, self.unit = operator.mul, operator.mul, operator.add, 1
            self.flat, self.group = lambda x: (x,), list
            self.certificate_start, self.conjugations = 0, ()
        else:
            # the reduction table: z^k in the power basis, k = deg .. 2 deg - 2
            red = [_divmod_monic([0] * k + [1], self.modulus)[1] for k in range(deg, 2 * deg - 1)]
            self.mul, self.scale = _product_kernel(deg, red), _scale
            self.add = lambda x, y: tuple(map(operator.add, x, y))
            self.unit = (1,) + (0,) * (deg - 1)
            self.flat, self.group = tuple, lambda values: list(zip(*[iter(values)] * deg))
            self.certificate_start = 1
            self.conjugations = tuple(k for k in range(2, n) if gcd(k, n) == 1)
        self.zero = Scalar(self, (Fraction(0),) * self.degree)
        self.one = Scalar(self, (Fraction(1),) + (Fraction(0),) * (self.degree - 1))
        return _FIELDS.setdefault(key, self)

    # -- identity ---------------------------------------------------------

    def __reduce__(self):
        return Field, (self.kind, self.conductor)

    def __repr__(self):
        if self.kind == "rational":
            return "Q"
        return f"Q(zeta_{self.conductor})"

    # -- element construction ----------------------------------------------

    def scalar(self, value) -> "Scalar":
        """Coerce an int, Fraction, grammar string or same-field Scalar."""
        if isinstance(value, Scalar):
            if value.field != self:
                raise FieldMismatchError(f"scalar of {value.field!r} used in {self!r}")
            return value
        if isinstance(value, (int, Fraction)):
            coeffs = (Fraction(value),) + (Fraction(0),) * (self.degree - 1)
            return Scalar(self, coeffs)
        if isinstance(value, str):
            return parse_scalar(self, value)
        raise TypeError(f"cannot make a scalar of {self!r} from {value!r}")

    def coerce(self, value) -> "Scalar":
        return self.scalar(value)

    def from_coeffs(self, coeffs) -> "Scalar":
        """Scalar from power-basis coefficients, reduced modulo Phi_n."""
        v = [Fraction(c) for c in coeffs]
        v += [Fraction(0)] * (self.degree - len(v))
        if self.kind == "rational":
            if any(v[1:]):
                raise ValueError("rational field admits no z coefficients")
            return Scalar(self, (v[0],))
        return Scalar(self, tuple(_divmod_monic(v, self.modulus)[1]))

    # -- integral coordinates ----------------------------------------------

    def clear_denominators(self, values) -> tuple[list, int]:
        """Integral coordinates of Scalars of this field, ints or Fractions.

        Returns (coords, den): den is the least positive common denominator
        (1 for no values) and each value equals its coordinates over den,
        an int over Q and a tuple of degree ints in the power basis over
        Q(zeta_n).  So a row of values and its coordinates differ by the
        nonzero factor den, which keeps ranks, row spaces and nullspaces.
        Over Q, all-int input comes back as it is, with den 1.
        """
        if self.degree == 1:
            fr = list(values)
            if set(map(type, fr)) <= {int}:
                return fr, 1
            fr = [x.coeffs[0] if isinstance(x, Scalar) else x for x in fr]
            den = lcm(*[x.denominator for x in fr])
            return [x.numerator * (den // x.denominator) for x in fr], den
        vectors = [self.scalar(x).coeffs for x in values]
        den = lcm(*[c.denominator for v in vectors for c in v])
        return [tuple(c.numerator * (den // c.denominator) for c in v) for v in vectors], den

    def from_integral(self, coords, den: int = 1) -> list["Scalar"]:
        """Scalars with the integral coordinates coords over den; inverse of
        clear_denominators."""
        if self.degree == 1:
            return [Scalar(self, (Fraction(x, den),)) for x in coords]
        return [Scalar(self, tuple(Fraction(c, den) for c in x)) for x in coords]

    def integral_inverse(self, x) -> tuple[tuple, int]:
        """1/x for a nonzero int tuple x over Z[zeta_n], n > 2, as (num, den)
        in lowest terms: num an int tuple, den a positive int, gcd 1.

        num starts as the product of the Galois conjugates sigma_k(x), z
        sent to z^k (conjugate), over the k of conjugations.  Then x * num is
        the product of all conjugates, the norm N(x): an integer, positive
        for nonzero x as Q(zeta_n) has no real embedding, which is checked.
        So 1/x = num / N(x), and both are divided by gcd(N(x), *num).
        Dividing by x is multiplying by num, then dividing each coordinate
        by den.  Scalar.inverse is its one caller: ranks and kernels over
        Q(zeta_n) are residue certificates, which invert only mod p.
        """
        mul = self.mul
        num = None
        for k in self.conjugations:
            conjugate = self.conjugate(x, k)
            num = conjugate if num is None else mul(num, conjugate)
        norm, *rest = mul(x, num)
        if any(rest) or norm <= 0:
            raise ArithmeticError(f"{x} has no inverse in Q(zeta_{self.conductor})")
        g = gcd(norm, *num)
        return tuple(c // g for c in num), norm // g

    def conjugate(self, x, k: int) -> tuple:
        """sigma_k(x), z sent to z^k, for power-basis coordinates x over
        Q(zeta_n), n > 2, ints or Fractions, and k in conjugations: the
        coordinate of z^i moves to z^(i k mod n), reduced modulo Phi_n."""
        n = self.conductor
        image = [0] * n
        for i, c in enumerate(x):
            image[i * k % n] += c
        return tuple(_divmod_monic(image, self.modulus)[1])

    def certificate_prime(self, k: int):
        """(p, images, lift) for the k-th prime p = 1 (mod n), k = 0, 1, ...

        Prime 0 is the largest such prime below 2^15 (the least one above,
        for a conductor with none below), so a product of two residues
        stays below 2^30 and a 64-bit word holds a sum of 2^33 of them: the
        full-rank test of every rank runs there.  Primes k >= 1 count down
        from 2^62, for the residue certificates of rank drops and kernels.

        Over Q(zeta_n), Z[zeta_n]/p splits into one copy of Z/p per root of
        Phi_n mod p, and images holds one ring map Z[zeta_n] -> Z/p per
        root, z sent to that root, applied to each coordinate of a
        sequence: an element whose image is nonzero is nonzero.  lift takes
        the residues of one element under the maps, in order, to its
        power-basis coordinates mod p, by the inverse Vandermonde matrix of
        the roots; a certificate lifts a kernel not known to be rational,
        and reads a rational one from the first map alone.  Over Q, images
        is the one reduction mod p and lift returns its residue.  Primality
        is by deterministic Miller-Rabin, exact below 3.3 * 10^24.
        """
        return _certificate_prime(self.conductor if self.degree > 1 else 1, k)

    def to_dict(self) -> dict:
        if self.kind == "rational":
            return {"type": "rational"}
        return {"type": "cyclotomic", "n": self.conductor}

    @staticmethod
    def from_dict(d: dict) -> "Field":
        kind = d.get("type") if isinstance(d, dict) else None
        if kind == "rational":
            return Field("rational")
        if kind == "cyclotomic" and type(d.get("n")) is int:  # no float or bool
            return Field("cyclotomic", d["n"])
        raise ValueError(f"field descriptor {d!r} is neither Q nor Q(zeta_n) with an int n")


_ZERO = Fraction(0)

_PRIME_BOUNDS = (1 << 15, 1 << 62)  # below which certificate primes 0 and 1 lie

# the first 13 primes: as Miller-Rabin bases they decide primality of
# every q below 3.3 * 10^24 (Sorenson and Webster, 2015)
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(q: int) -> bool:
    """Primality by deterministic Miller-Rabin, exact for q below 3.3 * 10^24."""
    if q < 2:
        return False
    for b in _MILLER_RABIN_BASES:
        if q % b == 0:
            return q == b
    d, s = q - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for b in _MILLER_RABIN_BASES:
        x = pow(b, d, q)
        if x == 1 or x == q - 1:
            continue
        for _ in range(s - 1):
            x = x * x % q
            if x == q - 1:
                break
        else:
            return False
    return True


def _roots_of_unity(n: int, p: int) -> list[int]:
    """The roots of Phi_n mod a prime p = 1 (mod n): the powers w^e, e a
    unit mod n in increasing order, of a primitive n-th root of unity w."""
    primes = [q for q in _divisors(n) if _is_prime(q)]
    roots = (pow(g, (p - 1) // n, p) for g in range(2, p))
    w = next(w for w in roots if all(pow(w, n // q, p) != 1 for q in primes))
    modulus = cyclotomic_polynomial(n)
    if sum(c * pow(w, k, p) for k, c in enumerate(modulus)) % p:
        raise ArithmeticError(f"{w} is no root of Phi_{n} mod {p}")
    return [pow(w, e, p) for e in range(1, n + 1) if gcd(e, n) == 1]


def _evaluation(powers, p: int):
    """The ring map Z[zeta_n] -> Z/p sending z to the root with these
    powers, applied to each coordinate tuple of a sequence."""
    return lambda coords: [sum(map(operator.mul, x, powers)) % p for x in coords]


_certificate_primes: dict = {}  # conductor -> [(p, images, lift)] for k = 0, 1, ...
_drawing = threading.Lock()


def _certificate_prime(n: int, k: int):
    """Field.certificate_prime of the conductor n, or of Q for n = 1, drawn
    under a lock, so that two threads never store a prime twice."""
    with _drawing:
        found = _certificate_primes.setdefault(n, [])
        while len(found) <= k:
            # each prime after prime 1 lies below the last
            bound = _PRIME_BOUNDS[len(found)] if len(found) < 2 else found[-1][0]
            top = (bound - 2) // n * n + 1
            candidates = itertools.chain(range(top, 1, -n), itertools.count(top + n, n))
            found.append(_split(n, next(q for q in candidates if _is_prime(q))))
        return found[k]


def _split(n: int, p: int):
    """(p, images, lift) for a prime p = 1 (mod n): see Field.certificate_prime."""
    if n == 1:
        return p, [lambda coords: [x % p for x in coords]], lambda values: values[0]
    roots = _roots_of_unity(n, p)
    degree = len(roots)
    vandermonde = []
    for w in roots:
        powers = [1]
        for _ in range(degree - 1):
            powers.append(powers[-1] * w % p)
        vandermonde.append(powers)
    # the inverse Vandermonde matrix mod p: Phi_n is the product of x - w
    # over the roots, so column w is Phi_n(x) / (x - w), by synthetic
    # division, over its value at w, Phi_n'(w)
    modulus = cyclotomic_polynomial(n)
    columns = []
    for w, powers in zip(roots, vandermonde):
        quotient = [1]
        for c in modulus[-2:0:-1]:
            quotient.append((c + w * quotient[-1]) % p)
        quotient.reverse()
        inv = pow(sum(map(operator.mul, quotient, powers)), -1, p)
        columns.append([c * inv % p for c in quotient])
    inverse = list(zip(*columns))

    def lift(values):
        return tuple(sum(map(operator.mul, row, values)) % p for row in inverse)

    return p, [_evaluation(v, p) for v in vandermonde], lift


_RESIDUES: dict = {}  # p -> the one Residues(p)


class Residues:
    """Z/p for a certificate prime p, with the Field interface that
    condition rows are built with: mul and scale, reduced to [0, p), and
    unit.  The maps of Field.certificate_prime are ring homomorphisms into
    it, so rows built here from images of integral coordinates are the
    images of the rows built from them.  There is one per prime, so rows
    memoized by their ring are found again at the same prime."""

    __slots__ = ("mul", "scale", "unit")

    def __new__(cls, p: int):
        self = object.__new__(cls)
        self.mul = self.scale = lambda x, y: x * y % p
        self.unit = 1
        return _RESIDUES.setdefault(p, self)


def _scale(x: tuple, c: int) -> tuple:
    """The int multiple c * x of power-basis coordinates x."""
    return x if c == 1 else tuple([c * t for t in x])


def _product_kernel(degree: int, red):
    """The one cyclotomic product: two coefficient tuples of length degree
    multiplied and reduced modulo Phi_n with the reduction table red.

    Integral coordinates are multiplied as they are; Scalar multiplication
    passes zero=Fraction(0), so that every coefficient stays a Fraction.
    An operand with no coordinate past the first, a rational one, scales
    the other instead.
    """
    span = 2 * degree - 1

    def mul(u, v, zero=0):
        if not any(u[1:]):
            a = u[0]
            return tuple([a * x for x in v])
        if not any(v[1:]):
            a = v[0]
            return tuple([x * a for x in u])
        w = [zero] * span
        for i in range(degree):
            ui = u[i]
            if ui:
                for j in range(degree):
                    vj = v[j]
                    if vj:
                        w[i + j] += ui * vj
        out = w[:degree]
        for k in range(degree, span):
            ck = w[k]
            if ck:
                row = red[k - degree]
                for i in range(degree):
                    ri = row[i]
                    if ri:
                        out[i] += ck * ri
        return tuple(out)

    return mul


class Scalar:
    """Immutable element of a Field, in canonical form."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs: tuple):
        # trusted constructor: coeffs already reduced, length field.degree
        self.field = field
        self.coeffs = coeffs

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __bool__(self):
        return any(self.coeffs)

    def is_rational(self) -> bool:
        """True when the value lies in the prime field Q."""
        return not any(self.coeffs[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.coeffs[0]

    # -- arithmetic -----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Scalar):
            if other.field != self.field:
                raise FieldMismatchError(
                    f"cannot mix scalars of {self.field!r} and {other.field!r}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.scalar(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Scalar(self.field, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Scalar(self.field, tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Scalar(self.field, tuple(b - a for a, b in zip(self.coeffs, o.coeffs)))

    def __neg__(self):
        return Scalar(self.field, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        f = self.field
        if f.degree == 1:
            return Scalar(f, (self.coeffs[0] * o.coeffs[0],))
        return Scalar(f, f.mul(self.coeffs, o.coeffs, _ZERO))

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        if self.is_zero():
            raise ZeroDivisionError("scalar division by zero")
        f = self.field
        if f.degree == 1:
            return Scalar(f, (1 / self.coeffs[0],))
        (x,), den = f.clear_denominators([self])
        num, norm = f.integral_inverse(x)
        # self = x / den, so 1/self = den * num / norm
        return f.from_integral([f.scale(num, den)], norm)[0]

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            return self.inverse() ** (-e)
        result = self.field.one
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- identity ---------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.scalar(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __str__(self):
        return render_scalar(self)

    __repr__ = __str__


# -- field-level operations -------------------------------------------------


def make_field(kind: str, n: int | None = None) -> Field:
    """The field descriptor of this kind (Field); the cyclotomic kind
    requires a conductor."""
    if kind == "cyclotomic" and n is None:
        raise ValueError("cyclotomic field needs a conductor")
    return Field(kind, 1 if n is None else n)


QQ = Field("rational")


def primitive_root(field: Field) -> Scalar:
    """The class of z: a primitive n-th root of unity in Q(zeta_n)."""
    if field.kind != "cyclotomic":
        raise ValueError("primitive_root needs a cyclotomic field")
    return field.from_coeffs([0, 1])


# -- text grammar -------------------------------------------------------------

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")
_TERM_RE = re.compile(
    r"^(?P<sign>[+-]?)"
    r"(?:(?P<coef>\d+(?:/\d+)?)\*?)?"
    r"(?P<z>z(?:\^(?P<exp>\d+))?)?$"
)


def parse_scalar(field: Field, text: str) -> Scalar:
    """Parse the scalar text grammar; cyclotomic input reduces mod Phi_n."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty scalar literal")
    if re.search(r"/0+(?!\d)", s):
        raise ValueError(f"zero denominator in scalar literal {text!r}")
    if field.kind == "rational":
        if not _RATIONAL_RE.match(s):
            raise ValueError(f"bad rational literal {text!r}")
        return field.scalar(Fraction(s))
    terms = re.findall(r"[+-]?[^+-]+", s)
    if "".join(terms) != s:
        raise ValueError(f"bad scalar literal {text!r}")
    coeffs: dict[int, Fraction] = {}
    for term in terms:
        m = _TERM_RE.match(term)
        if not m or (m.group("coef") is None and m.group("z") is None):
            raise ValueError(f"bad term {term!r} in scalar literal {text!r}")
        c = Fraction(m.group("coef")) if m.group("coef") else Fraction(1)
        if m.group("sign") == "-":
            c = -c
        e = 0
        if m.group("z"):
            e = int(m.group("exp")) if m.group("exp") else 1
        coeffs[e] = coeffs.get(e, Fraction(0)) + c
    top = max(coeffs)
    vec = [coeffs.get(i, Fraction(0)) for i in range(top + 1)]
    return field.from_coeffs(vec)


def render_scalar(s: Scalar) -> str:
    """Inverse of parse_scalar, low powers first; '0' for zero."""
    if s.is_rational():
        return str(s.coeffs[0])
    parts = []
    for e, c in enumerate(s.coeffs):
        if not c:
            continue
        if e == 0:
            body = str(abs(c))
        else:
            mag = abs(c)
            zpart = "z" if e == 1 else f"z^{e}"
            body = zpart if mag == 1 else f"{mag}*{zpart}"
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append(("+" if c > 0 else "-") + body)
    return "".join(parts)
