import random
from fractions import Fraction

import pytest

from deltader.fields import (
    DivisionByZero,
    InvalidField,
    NonInvertible,
    PrimeField,
    QuotientRing,
    Rationals,
    _MR_LIMIT,
    _is_prime,
    field_from_json,
    field_to_json,
    parse_scalar,
)


def test_is_prime_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

    assert [n for n in range(-3, 30000) if _is_prime(n)] == [n for n in range(-3, 30000) if trial(n)]
    # Carmichael numbers and strong pseudoprimes to the first 1 to 9 prime bases
    for n in (561, 41041, 2047, 1373653, 25326001, 3215031751, 2152302898747,
              3474749660383, 341550071728321, 3825123056546413051):
        assert not _is_prime(n), n
    for p in (2**31 - 1, 2147483629, 2**61 - 1):
        assert _is_prime(p), p
    assert not _is_prime((2**31 - 1) * 2147483629)


FIELDS = [
    Rationals(),
    PrimeField(5),
    PrimeField(97),
    QuotientRing(Rationals(), [Fraction(-2), Fraction(0), Fraction(1)]),  # t^2 - 2
]


@pytest.mark.parametrize("F", FIELDS, ids=lambda f: repr(f))
def test_field_axioms_random(F):
    rng = random.Random(20260826)
    zero, one = F.zero(), F.one()
    for _ in range(500):
        a, b, c = F.sample(rng), F.sample(rng), F.sample(rng)
        assert F.eq(F.add(a, b), F.add(b, a))
        assert F.eq(F.mul(a, b), F.mul(b, a))
        assert F.eq(F.add(F.add(a, b), c), F.add(a, F.add(b, c)))
        assert F.eq(F.mul(F.mul(a, b), c), F.mul(a, F.mul(b, c)))
        assert F.eq(F.mul(a, F.add(b, c)), F.add(F.mul(a, b), F.mul(a, c)))
        assert F.eq(F.add(a, zero), a)
        assert F.eq(F.mul(a, one), a)
        assert F.eq(F.add(a, F.neg(a)), zero)
        if not F.is_zero(a):
            assert F.eq(F.mul(a, F.inv(a)), one)


@pytest.mark.parametrize("F", FIELDS, ids=lambda f: repr(f))
def test_division_by_zero(F):
    with pytest.raises((DivisionByZero, NonInvertible)):
        F.inv(F.zero())


def test_rational_inverse_and_quotient_of_ints_are_fractions():
    # plain ints divide to floats in Python; Q must stay exact
    Q = Rationals()
    for value, expected in [
        (Q.inv(2), Fraction(1, 2)),
        (Q.div(1, 2), Fraction(1, 2)),
        (Q.div(-6, 4), Fraction(-3, 2)),
        (Q.inv(Fraction(-2, 3)), Fraction(-3, 2)),
        (Q.div(Fraction(1, 2), 3), Fraction(1, 6)),
    ]:
        assert type(value) is Fraction and value == expected
    with pytest.raises(DivisionByZero):
        Q.div(1, 0)


def test_char_2_and_3_rejected():
    with pytest.raises(InvalidField):
        PrimeField(2)
    with pytest.raises(InvalidField):
        PrimeField(3)
    with pytest.raises(InvalidField):
        PrimeField(6)


@pytest.mark.parametrize("p", [2**89 - 1, _MR_LIMIT, 2**127 - 1])
def test_prime_beyond_the_primality_bound_rejected(p):
    # each of these once ran trial division up to sqrt(p), which never ended
    with pytest.raises(InvalidField, match=f"primality is decided only below {_MR_LIMIT}"):
        PrimeField(p)
    assert PrimeField(2**61 - 1).p == 2**61 - 1


def test_quotient_ring_noninvertible_witness():
    # t^2 - 1 = (t-1)(t+1) is not irreducible; t - 1 is a zero divisor
    R = QuotientRing(Rationals(), [Fraction(-1), Fraction(0), Fraction(1)])
    bad = R.coerce([Fraction(-1), Fraction(1)])  # t - 1
    with pytest.raises(NonInvertible) as exc:
        R.inv(bad)
    assert exc.value.witness is not None
    assert not R.is_unit(bad) and not R.is_unit(R.zero())
    assert not R.is_unit(R.coerce([Fraction(1), Fraction(1)]))  # t + 1
    assert R.is_unit(R.coerce([Fraction(2), Fraction(1)]))  # t + 2, prime to t - 1 and t + 1
    assert R.is_unit(R.t) and not PrimeField(5).is_unit(0) and Rationals().is_unit(Fraction(-1, 3))


# irreducible moduli of degree d + 1: t^(d+1) - 2 over Q (Eisenstein at 2);
# over GF(p) the first ones of the form t^(d+1) + a t + b (Rabin's test)
IRREDUCIBLE = {
    (5, 1): [2, 0, 1], (5, 2): [1, 1, 0, 1], (5, 3): [2, 0, 0, 0, 1],
    (13, 1): [2, 0, 1], (13, 2): [2, 0, 0, 1], (13, 3): [2, 0, 0, 0, 1],
}


@pytest.mark.parametrize("base", [Rationals(), PrimeField(5), PrimeField(13)])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_adjoin_parameter(base, d):
    if isinstance(base, Rationals):
        modulus = [-2] + [0] * d + [1]
    else:
        modulus = IRREDUCIBLE[(base.p, d)]
    ext = QuotientRing(base, modulus)
    # K[t]/(f) is a field containing >= d+1 linearly independent powers of t
    t = ext.t
    acc = ext.one()
    rng = random.Random(7)
    for _ in range(50):
        a = ext.sample(rng)
        if not ext.is_zero(a):
            assert ext.eq(ext.mul(a, ext.inv(a)), ext.one())
    for _ in range(d):
        acc = ext.mul(acc, t)
        assert not ext.is_zero(acc)


@pytest.mark.parametrize("F", FIELDS, ids=lambda f: repr(f))
def test_json_round_trip(F):
    data = field_to_json(F)
    G = field_from_json(data)
    assert F == G


def test_parse_scalar_exact():
    Q = Rationals()
    assert parse_scalar(Q, "3/7") == Fraction(3, 7)
    assert parse_scalar(Q, "-2") == Fraction(-2)
    F5 = PrimeField(5)
    assert parse_scalar(F5, "1/2") == F5.div(F5.one(), F5.from_int(2))
    for bad in ("0.5", "1e3", "2.0"):
        with pytest.raises(ValueError):
            parse_scalar(Q, bad)


def test_parse_scalar_grammar():
    """Decimal and exponent notation is recognised by its form; booleans and
    other words are not scalars at all."""
    Q = Rationals()
    for bad in ("0.5", "1e2", ".5", "3.", "-2E-3", ["1", "0.5"]):
        with pytest.raises(ValueError, match="decimal literals are rejected"):
            parse_scalar(Q, bad)
    for bad in (True, False, "true", "1e", "abc", None):
        with pytest.raises(ValueError, match="not a scalar literal"):
            parse_scalar(Q, bad)
    QT = QuotientRing(Q, [Fraction(-2), Fraction(0), Fraction(1)])
    assert parse_scalar(QT, (Fraction(1, 2), Fraction(3))) == (Fraction(1, 2), Fraction(3))
    with pytest.raises(ValueError, match="decimal literals are rejected"):
        parse_scalar(QT, ("0.5", "0"))
    with pytest.raises(ValueError, match="not a scalar literal"):
        parse_scalar(QT, (True, 0))
