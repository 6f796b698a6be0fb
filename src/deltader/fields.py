"""Exact scalar arithmetic: rationals, prime fields, and quotient rings.

Three kinds of coefficient domains are supported:

* ``Rationals`` -- arbitrary-precision rationals backed by ``fractions.Fraction``;
* ``PrimeField(p)`` -- GF(p) for a prime p >= 5 (characteristic 2 and 3 are
  rejected up front);
* ``QuotientRing(base, modulus)`` -- the univariate quotient K[t]/(f) over a
  rational or prime base, a coefficient field when f is irreducible (JSON
  kind ``quot``).

Field objects operate on *raw payloads* (``Fraction``, ``int`` in [0, p),
or a tuple of base payloads of length deg f) so that inner loops stay cheap;
:class:`FieldElement` is a thin operator-overloading wrapper around
(field, payload) for use at API boundaries.

Division in a quotient ring checks invertibility; a zero divisor raises
:class:`NonInvertible` carrying the gcd witness, so a reducible modulus is
reported instead of giving wrong arithmetic.

The polynomial helpers (coefficient lists, low degree first) serve the
quotient rings and the parametric solver.  That solver works over K[delta],
never in a quotient ring: fraction-free elimination keeps the pencil's
entries polynomial, and its last pivot is a maximal nonvanishing minor whose
roots in K are the only candidates for special delta.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable


class FieldError(ArithmeticError):
    pass


class DivisionByZero(FieldError):
    pass


class NonInvertible(FieldError):
    """Division by a zero divisor in a quotient ring.

    ``witness`` is the nontrivial gcd of the divisor with the modulus,
    as a coefficient list over the base field.
    """

    def __init__(self, message: str, witness: list | None = None):
        super().__init__(message)
        self.witness = witness


class InvalidField(ValueError):
    pass


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


# ---------------------------------------------------------------------------
# descriptors


class Field:
    """Base class for field descriptors; subclasses implement raw-payload ops."""

    char: int

    # subclasses: add, sub, mul, neg, div, inv, zero(), one(), from_int,
    # is_zero, eq, fmt, parse, to_json

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def eq(self, a, b) -> bool:
        return self.is_zero(self.sub(a, b))

    def element(self, value) -> "FieldElement":
        return FieldElement(self, self.coerce(value))

    def coerce(self, value):
        """Turn an int, string, Fraction or payload into a canonical payload."""
        raise NotImplementedError

    def sample(self, rng):
        """A pseudo-random payload, for property tests."""
        raise NotImplementedError

    def __ne__(self, other):
        return not self.__eq__(other)


class Rationals(Field):
    char = 0

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise DivisionByZero("1/0 in Q")
        return 1 / a

    def div(self, a, b):
        if b == 0:
            raise DivisionByZero("division by zero in Q")
        return a / b

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def from_int(self, k: int):
        return Fraction(k)

    def is_zero(self, a) -> bool:
        return a == 0

    def eq(self, a, b) -> bool:
        return a == b

    def coerce(self, value):
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, str):
            return Fraction(value)
        raise TypeError(f"cannot coerce {value!r} into Q")

    def fmt(self, a) -> str | int:
        if a.denominator == 1:
            return int(a)
        return f"{a.numerator}/{a.denominator}"

    def sample(self, rng):
        return Fraction(rng.randint(-30, 30), rng.randint(1, 12))

    def to_json(self):
        return {"kind": "Q"}

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Q"


class PrimeField(Field):
    def __init__(self, p: int):
        if not _is_prime(p):
            raise InvalidField(f"{p} is not prime")
        if p in (2, 3):
            raise InvalidField("characteristic 2 and 3 are not supported")
        self.p = p
        self.char = p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise DivisionByZero(f"1/0 in GF({self.p})")
        return pow(a, -1, self.p)

    def div(self, a, b):
        return (a * self.inv(b)) % self.p

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, k: int):
        return k % self.p

    def is_zero(self, a) -> bool:
        return a == 0

    def eq(self, a, b) -> bool:
        return a == b

    def coerce(self, value):
        if isinstance(value, int):
            return value % self.p
        if isinstance(value, Fraction):
            return self.div(value.numerator % self.p, value.denominator % self.p)
        if isinstance(value, str):
            return self.coerce(Fraction(value))
        raise TypeError(f"cannot coerce {value!r} into GF({self.p})")

    def fmt(self, a) -> int:
        return a

    def sample(self, rng):
        return rng.randrange(self.p)

    def to_json(self):
        return {"kind": "GFp", "p": self.p}

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GFp", self.p))

    def __repr__(self):
        return f"GF({self.p})"


# ---------------------------------------------------------------------------
# polynomial helpers over a base field (coefficient lists, low degree first)


def poly_trim(base: Field, f: list) -> list:
    while f and base.is_zero(f[-1]):
        f.pop()
    return f


def poly_deg(f: list) -> int:
    return len(f) - 1


def poly_add(base: Field, f: list, g: list) -> list:
    n = max(len(f), len(g))
    out = []
    z = base.zero()
    for i in range(n):
        a = f[i] if i < len(f) else z
        b = g[i] if i < len(g) else z
        out.append(base.add(a, b))
    return poly_trim(base, out)


def poly_neg(base: Field, f: list) -> list:
    return [base.neg(c) for c in f]

def poly_sub(base: Field, f: list, g: list) -> list:
    return poly_add(base, f, poly_neg(base, g))


def poly_scale(base: Field, f: list, c) -> list:
    if base.is_zero(c):
        return []
    return poly_trim(base, [base.mul(a, c) for a in f])


def poly_mul(base: Field, f: list, g: list) -> list:
    if not f or not g:
        return []
    out = [base.zero()] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if base.is_zero(a):
            continue
        for j, b in enumerate(g):
            out[i + j] = base.add(out[i + j], base.mul(a, b))
    return poly_trim(base, out)


def poly_divmod(base: Field, f: list, g: list) -> tuple[list, list]:
    if not g:
        raise DivisionByZero("polynomial division by zero")
    f = list(f)
    q = [base.zero()] * max(len(f) - len(g) + 1, 0)
    inv_lead = base.inv(g[-1])
    while len(f) >= len(g) and f:
        c = base.mul(f[-1], inv_lead)
        d = len(f) - len(g)
        q[d] = c
        for i, b in enumerate(g):
            f[d + i] = base.sub(f[d + i], base.mul(c, b))
        poly_trim(base, f)
    return poly_trim(base, q), f


def poly_mod(base: Field, f: list, g: list) -> list:
    return poly_divmod(base, f, g)[1]


def poly_monic(base: Field, f: list) -> list:
    if not f:
        return f
    return poly_scale(base, f, base.inv(f[-1]))


def poly_gcd(base: Field, f: list, g: list) -> list:
    f, g = list(f), list(g)
    while g:
        f, g = g, poly_mod(base, f, g)
    return poly_monic(base, f)


def poly_ext_gcd(base: Field, f: list, g: list) -> tuple[list, list, list]:
    """Return (d, u, v) with u*f + v*g = d = monic gcd(f, g)."""
    r0, r1 = list(f), list(g)
    u0, u1 = [base.one()], []
    v0, v1 = [], [base.one()]
    while r1:
        q, r = poly_divmod(base, r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, poly_sub(base, u0, poly_mul(base, q, u1))
        v0, v1 = v1, poly_sub(base, v0, poly_mul(base, q, v1))
    if r0:
        c = base.inv(r0[-1])
        r0 = poly_scale(base, r0, c)
        u0 = poly_scale(base, u0, c)
        v0 = poly_scale(base, v0, c)
    return r0, u0, v0


def poly_eval(base: Field, f: list, x):
    acc = base.zero()
    for c in reversed(f):
        acc = base.add(base.mul(acc, x), c)
    return acc


class QuotientRing(Field):
    """K[t]/(f) for K rational or prime, f monic of degree >= 1.

    Not necessarily a field: division checks invertibility and raises
    NonInvertible with the gcd witness otherwise.
    """

    def __init__(self, base: Field, modulus: Iterable):
        if isinstance(base, QuotientRing):
            raise InvalidField("quotient ring base must be Q or GF(p)")
        modulus = [base.coerce(c) for c in modulus]
        if len(modulus) < 2:
            raise InvalidField("modulus must have degree >= 1")
        if not base.eq(modulus[-1], base.one()):
            raise InvalidField("modulus must be monic")
        self.base = base
        self.modulus = modulus
        self.deg = len(modulus) - 1
        self.char = base.char

    @property
    def t(self):
        """Payload of the residue class of the indeterminate."""
        vec = [self.base.zero()] * self.deg
        if self.deg == 1:
            # t reduces to -f[0]
            vec[0] = self.base.neg(self.modulus[0])
        else:
            vec[1] = self.base.one()
        return tuple(vec)

    def _pad(self, f: list) -> tuple:
        z = self.base.zero()
        return tuple(list(f) + [z] * (self.deg - len(f)))

    def lift(self, a) -> list:
        """Payload -> trimmed coefficient list over the base."""
        return poly_trim(self.base, list(a))

    def add(self, a, b):
        return tuple(self.base.add(x, y) for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple(self.base.sub(x, y) for x, y in zip(a, b))

    def neg(self, a):
        return tuple(self.base.neg(x) for x in a)

    def mul(self, a, b):
        prod = poly_mul(self.base, self.lift(a), self.lift(b))
        return self._pad(poly_mod(self.base, prod, self.modulus))

    def inv(self, a):
        fa = self.lift(a)
        if not fa:
            raise DivisionByZero("1/0 in quotient ring")
        d, u, _ = poly_ext_gcd(self.base, fa, self.modulus)
        if poly_deg(d) != 0:
            raise NonInvertible("element not coprime to the modulus", witness=d)
        return self._pad(poly_mod(self.base, u, self.modulus))

    def zero(self):
        return tuple([self.base.zero()] * self.deg)

    def one(self):
        vec = [self.base.zero()] * self.deg
        vec[0] = self.base.one()
        return tuple(vec)

    def from_int(self, k: int):
        vec = [self.base.zero()] * self.deg
        vec[0] = self.base.from_int(k)
        return tuple(vec)

    def is_zero(self, a) -> bool:
        return all(self.base.is_zero(x) for x in a)

    def eq(self, a, b) -> bool:
        return all(self.base.eq(x, y) for x, y in zip(a, b))

    def coerce(self, value):
        if isinstance(value, tuple) and len(value) == self.deg:
            return tuple(self.base.coerce(c) for c in value)
        if isinstance(value, (list,)):
            f = [self.base.coerce(c) for c in value]
            return self._pad(poly_mod(self.base, poly_trim(self.base, f), self.modulus))
        if isinstance(value, (int, Fraction, str)):
            vec = [self.base.zero()] * self.deg
            vec[0] = self.base.coerce(value)
            return tuple(vec)
        raise TypeError(f"cannot coerce {value!r} into {self!r}")

    def fmt(self, a) -> list:
        return [self.base.fmt(c) for c in a]

    def sample(self, rng):
        return tuple(self.base.sample(rng) for _ in range(self.deg))

    def to_json(self):
        return {
            "kind": "quot",
            "base": self.base.to_json(),
            "modulus": [self.base.fmt(c) for c in self.modulus],
        }

    def __eq__(self, other):
        return (
            isinstance(other, QuotientRing)
            and other.base == self.base
            and len(other.modulus) == len(self.modulus)
            and all(self.base.eq(a, b) for a, b in zip(other.modulus, self.modulus))
        )

    def __hash__(self):
        return hash(("quot", self.base, self.deg))

    def __repr__(self):
        return f"{self.base!r}[t]/(deg {self.deg})"


# ---------------------------------------------------------------------------
# element wrapper


class FieldElement:
    """Immutable (field, payload) pair with operator overloading."""

    __slots__ = ("field", "payload")

    def __init__(self, field: Field, payload):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "payload", payload)

    def __setattr__(self, *args):
        raise AttributeError("FieldElement is immutable")

    def _co(self, other):
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise FieldError("elements of different fields")
            return other.payload
        return self.field.coerce(other)

    def __add__(self, other):
        return FieldElement(self.field, self.field.add(self.payload, self._co(other)))

    __radd__ = __add__

    def __sub__(self, other):
        return FieldElement(self.field, self.field.sub(self.payload, self._co(other)))

    def __rsub__(self, other):
        return FieldElement(self.field, self.field.sub(self._co(other), self.payload))

    def __mul__(self, other):
        return FieldElement(self.field, self.field.mul(self.payload, self._co(other)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return FieldElement(self.field, self.field.div(self.payload, self._co(other)))

    def __rtruediv__(self, other):
        return FieldElement(self.field, self.field.div(self._co(other), self.payload))

    def __neg__(self):
        return FieldElement(self.field, self.field.neg(self.payload))

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.field == other.field and self.field.eq(self.payload, other.payload)
        try:
            return self.field.eq(self.payload, self._co(other))
        except TypeError:
            return NotImplemented

    def __hash__(self):
        return hash((self.field, repr(self.payload)))

    def __bool__(self):
        return not self.field.is_zero(self.payload)

    def __repr__(self):
        return f"{self.field.fmt(self.payload)}"


# ---------------------------------------------------------------------------
# JSON interchange


def field_to_json(field: Field) -> dict:
    return field.to_json()


def field_from_json(data: dict) -> Field:
    kind = data.get("kind")
    if kind == "Q":
        return Rationals()
    if kind == "GFp":
        return PrimeField(int(data["p"]))
    if kind == "quot":
        base = field_from_json(data["base"])
        return QuotientRing(base, [base.coerce(c) for c in data["modulus"]])
    raise InvalidField(f"unknown field kind {kind!r}")


def parse_scalar(field: Field, text):
    """Parse an exact scalar literal ("3", "-5/7", coefficient list)."""
    if isinstance(text, str) and any(ch in text for ch in ".eE"):
        raise ValueError(f"decimal literals are rejected, use exact fractions: {text!r}")
    if isinstance(text, float):
        raise ValueError(f"float scalars are rejected, use exact fractions: {text!r}")
    try:
        return field.coerce(text)
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in scalar literal {text!r}") from exc
    except TypeError as exc:
        raise ValueError(f"not a scalar literal: {text!r}") from exc
