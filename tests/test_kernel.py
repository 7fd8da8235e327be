"""The arithmetic kernels against exact references written here."""

import random
from fractions import Fraction

import coxwalk
from coxwalk import _kernel as K
from coxwalk.algebra import field_for_lcm

FIELD = field_for_lcm(30)
MP = FIELD.minpoly  # little-endian and monic: MP[D] == 1
MP_LOW = FIELD._mp_low
D = FIELD.degree


def _vec(rng, span=10**6):
    return tuple(rng.randint(-span, span) for _ in range(D))


def _mul_mod(a, b):
    """Schoolbook product, then long division by the monic minimal polynomial."""
    r = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            r[i + j] += x * y
    while len(r) > D:
        c = r.pop()
        base = len(r) - D
        for j in range(D):
            r[base + j] -= c * MP[j]
    return r


def _value(coeffs, x):
    """Exact value of the little-endian integer polynomial at the rational x."""
    return sum(c * x**i for i, c in enumerate(coeffs))


def _sign(q):
    return (q > 0) - (q < 0)


def test_backend_name():
    assert K.BACKEND == coxwalk.KERNEL_BACKEND == "pure"


def test_poly_mul_mod():
    rng = random.Random(0)
    for _ in range(300):
        a, b = _vec(rng), _vec(rng)
        assert K.poly_mul_mod(a, b, MP_LOW) == _mul_mod(a, b)


def test_dot_mod():
    rng = random.Random(2)
    for _ in range(100):
        n = rng.randint(1, 6)
        an = [_vec(rng, 999) for _ in range(n)]
        bn = [_vec(rng, 999) for _ in range(n)]
        expect = [0] * D
        for k in range(n):
            prod = _mul_mod(an[k], bn[k])
            for i in range(D):
                expect[i] += prod[i]
        assert K.dot_mod(an, bn, MP_LOW) == tuple(expect)


def test_dot_mod_zero_is_canonical():
    rng = random.Random(5)
    a, b = _vec(rng, 999), _vec(rng, 999)
    minus_a = tuple(-x for x in a)
    # terms that cancel exactly, a zero factor, and no terms
    assert K.dot_mod([a, minus_a], [b, b], MP_LOW) == (0,) * D
    assert K.dot_mod([a], [(0,) * D], MP_LOW) == (0,) * D
    assert K.dot_mod([], [], MP_LOW) == (0,) * D


def test_interval_sign():
    rng = random.Random(3)
    lo, hi, shift = FIELD._iso
    decided = 0
    for _ in range(500):
        nums = _vec(rng, 50)
        sign = K.interval_sign(nums, lo, hi, shift)
        if sign:
            decided += 1
            for end in (lo, hi):
                assert _sign(_value(nums, Fraction(end, 2**shift))) == sign
    assert decided > 0
    # wide intervals, where the Horner bounds often cannot decide
    for _ in range(500):
        nums = _vec(rng, 50)
        shift = rng.randint(0, 12)
        lo = rng.randint(-(2 ** (shift + 2)), 2 ** (shift + 2))
        hi = lo + rng.randint(0, 2**shift)
        sign = K.interval_sign(nums, lo, hi, shift)
        if sign:
            for end in (lo, hi):
                assert _sign(_value(nums, Fraction(end, 2**shift))) == sign
    # a root on either endpoint is never certified: x on [0, 1] and [-1, 0]
    assert K.interval_sign((0, 1), 0, 1, 0) == 0
    assert K.interval_sign((0, 1), -1, 0, 0) == 0


def test_eval_sign_at_dyadic():
    rng = random.Random(4)
    for _ in range(500):
        num = rng.randint(-(2**40), 2**40)
        shift = rng.randint(0, 38)
        expect = _sign(_value(MP, Fraction(num, 2**shift)))
        assert K.eval_sign_at_dyadic(MP, num, shift) == expect
    # exact zeros: the root 0 of x^3 - x and the root 1/2 of 2x - 1
    assert K.eval_sign_at_dyadic((0, -1, 0, 1), 0, 5) == 0
    assert K.eval_sign_at_dyadic((-1, 2), 1, 1) == 0
