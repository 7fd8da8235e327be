"""Exact field arithmetic: minimal polynomials, operations, signs, the form."""

import math
import operator
import random
from fractions import Fraction

import pytest

from coxwalk import algebra
from coxwalk.algebra import Definiteness, field_for_lcm, minpoly_2cos_pi_over
from coxwalk.diagram import parse_diagram
from coxwalk.element import CapExceededError


KNOWN_MINPOLYS = {
    2: (0, 1),          # x
    3: (-1, 1),         # x - 1
    4: (-2, 0, 1),      # x^2 - 2
    5: (-1, -1, 1),     # x^2 - x - 1
    6: (-3, 0, 1),      # x^2 - 3
    12: (1, 0, -4, 0, 1),
}


@pytest.mark.parametrize("L,expected", sorted(KNOWN_MINPOLYS.items()))
def test_minpoly_known_values(L, expected):
    assert minpoly_2cos_pi_over(L) == expected


def test_minpoly_against_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for L in list(range(2, 25)) + [30, 36]:
        expected = sympy.minimal_polynomial(2 * sympy.cos(sympy.pi / L), x)
        coeffs = list(reversed(expected.as_poly(x).all_coeffs()))
        assert list(minpoly_2cos_pi_over(L)) == [int(c) for c in coeffs], L


def test_minpoly_degree_and_root():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 60
    for L in range(2, 40):
        field = field_for_lcm(L)
        c = 2 * mpmath.cos(mpmath.pi / L)
        value = mpmath.polyval(list(reversed(field.minpoly)), c)
        scale = max(abs(v) for v in field.minpoly)
        assert abs(value) < mpmath.mpf(10) ** -40 * scale


def test_field_for_uses_label_lcm():
    d = parse_diagram("a b c; a-b b-c")  # labels {3, 2}
    f = algebra.field_for(d)
    assert f.L == 1 and f.degree == 1
    d = parse_diagram("s t u v w; s-t:5 t-u u-v v-w")
    assert algebra.field_for(d).L == 5
    assert algebra.field_for(d).degree == 2
    d = parse_diagram("a b")  # all labels 2
    f = algebra.field_for(d)
    assert f.L == 1 and f.degree == 1


def test_generator_satisfies_golden_identity():
    f = field_for_lcm(5)
    c = f.generator
    assert (c * c - c - 1).is_zero()
    assert (c - 1).sign() == 1
    assert (c * c - c - 1).sign() == 0


def _random_element(field, rng, span=60):
    nums = [rng.randint(-span, span) for _ in range(field.degree)]
    den = rng.randint(1, 30)
    return field.element([Fraction(n, den) for n in nums])


@pytest.mark.parametrize("L", [5, 12, 30])
def test_field_axioms_randomized(L):
    field = field_for_lcm(L)
    rng = random.Random(1000 + L)
    for _ in range(60):
        a = _random_element(field, rng)
        b = _random_element(field, rng)
        c = _random_element(field, rng)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + field.zero == a
        assert a * field.one == a
        assert (a - a).is_zero()


def test_sign_matches_high_precision_floats():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 80
    field = field_for_lcm(30)
    c = 2 * mpmath.cos(mpmath.pi / 30)
    rng = random.Random(42)
    for _ in range(1000):
        a = _random_element(field, rng, span=999)
        value = sum(Fraction(n, a.den) * c**i for i, n in enumerate(a.nums))
        expected = 0 if value == 0 else (1 if value > 0 else -1)
        assert a.sign() == expected


def _assert_canonical(x):
    assert isinstance(x.nums, tuple) and len(x.nums) == x.field.degree
    assert x.den > 0
    assert math.gcd(x.den, *x.nums) == 1


@pytest.mark.parametrize("L,degree", [(1, 1), (5, 2), (20, 8)])
def test_integer_add_sub_skip_normalize(L, degree, monkeypatch):
    field = field_for_lcm(L)
    assert field.degree == degree
    rng = random.Random(7 * L)
    normalized = [0]
    normalize = algebra.K.normalize

    def counted(nums, den):
        normalized[0] += 1
        return normalize(nums, den)

    monkeypatch.setattr(algebra.K, "normalize", counted)
    for _ in range(100):
        a = field.element([rng.randint(-50, 50) for _ in range(degree)])
        b = field.element([rng.randint(-50, 50) for _ in range(degree)])
        b = a if rng.random() < 0.2 else b
        assert a.den == b.den == 1
        for op in (operator.add, operator.sub):
            before = normalized[0]
            got = op(a, b)
            assert normalized[0] == before
            _assert_canonical(got)
            assert got.den == 1
            assert got.to_fractions() == tuple(
                op(x, y) for x, y in zip(a.to_fractions(), b.to_fractions())
            )
        zero = a - a
        assert zero == field.zero and zero.den == 1
        assert (a + (field.zero - a)) == field.zero

    # an operand over a denominator > 1 still takes the gcd path
    half = field.rational(Fraction(1, 2))
    third = field.element([Fraction(1, 3)] * degree)
    for a, b in ((half, field.one), (field.one, third), (half, third), (half, half)):
        for op in (operator.add, operator.sub):
            before = normalized[0]
            got = op(a, b)
            assert normalized[0] == before + 1
            _assert_canonical(got)
            assert got.to_fractions() == tuple(
                op(x, y) for x, y in zip(a.to_fractions(), b.to_fractions())
            )
    assert (half - half) == field.zero


def test_equality_iff_difference_sign_zero():
    field = field_for_lcm(12)
    rng = random.Random(3)
    for _ in range(100):
        a = _random_element(field, rng)
        b = _random_element(field, rng) if rng.random() < 0.5 else a
        assert (a == b) == ((a - b).sign() == 0)


def test_scalar_coercions_and_float():
    f = field_for_lcm(12)
    c = f.generator
    assert 3 * c == c + c + c
    assert Fraction(1, 2) + c == c + Fraction(1, 2)
    # no float conversion, division or ordering operator: sign() decides
    for op in (float, lambda x: x / 2, lambda x: x < 1):
        with pytest.raises(TypeError):
            op(c)


def test_form_values():
    d = parse_diagram("a b c d; a-b:3 b-c:4 c-d:5")
    f = algebra.field_for(d)
    assert f.L == 20
    assert algebra.form_value(d, 0, 0, f) == f.one
    assert algebra.form_value(d, 0, 2, f).is_zero()  # m = 2
    assert algebra.form_value(d, 0, 1, f) == Fraction(-1, 2)  # m = 3
    x4 = algebra.form_value(d, 1, 2, f)  # -cos(pi/4)
    assert x4.sign() == -1
    two = f.rational(2)
    assert ((x4 + x4) * (x4 + x4)) == two
    x5 = algebra.form_value(d, 2, 3, f)  # -cos(pi/5) = -(1+sqrt(5))/4
    assert (4 * (x5 * x5) + 2 * x5 - 1).is_zero()
    # 2*(-x) is the golden ratio 2cos(pi/5)
    z = (-x5) + (-x5)
    assert (z * z - z - 1).is_zero()


def test_form_value_label_must_divide_L():
    # Q(2cos(pi/5)) holds no cos(pi/4); L // 4 would silently read cos(pi/5)
    d = parse_diagram("a b; a-b:4")
    with pytest.raises(ValueError, match="label 4 does not divide the field's L = 5"):
        algebra.form_value(d, 0, 1, field_for_lcm(5))


def test_form_value_infinite_label():
    d = parse_diagram("a b; a-b:inf")
    f = algebra.field_for(d)
    assert algebra.form_value(d, 0, 1, f) == f.rational(-1)


def test_form_bounds():
    d = parse_diagram("a b c d e f g; a-b:3 a-c:4 a-d:5 a-e:6 a-f:7 a-g:inf")
    f = algebra.field_for(d)
    one = f.one
    for j in range(1, 7):
        val = algebra.form_value(d, 0, j, f)
        assert (one - val).sign() >= 0 and (val + one).sign() >= 0
        gap = one - val * val
        if d.label(0, j) == math.inf:
            assert gap.sign() == 0
        else:
            assert gap.sign() == 1
    # diagonal: 1 - f^2 vanishes
    diag = algebra.form_value(d, 0, 0, f)
    assert (one - diag * diag).sign() == 0


def test_gram_definiteness_examples():
    a2 = parse_diagram("a b; a-b")
    assert algebra.definiteness(algebra.gram(a2)) == Definiteness.POS_DEF
    a2t = parse_diagram("a b c; a-b b-c a-c")
    assert algebra.definiteness(algebra.gram(a2t)) == Definiteness.POS_SEMIDEF_SINGULAR
    i2inf = parse_diagram("a b; a-b:inf")
    g = algebra.gram(i2inf)
    assert g[0][1] == algebra.field_for(i2inf).rational(-1)
    assert algebra.definiteness(g) == Definiteness.POS_SEMIDEF_SINGULAR
    b3 = parse_diagram("a b c; a-b b-c:4")
    assert algebra.definiteness(algebra.gram(b3)) == Definiteness.POS_DEF
    hyp = parse_diagram("a b c; a-b b-c a-c:4")
    assert algebra.definiteness(algebra.gram(hyp)) == Definiteness.OTHER


def test_mixed_field_operations_rejected():
    f5 = field_for_lcm(5)
    f6 = field_for_lcm(6)
    with pytest.raises(ValueError):
        f5.one + f6.one


def test_field_degree_cap():
    assert algebra.CapExceededError is CapExceededError
    assert field_for_lcm(60).degree == 16 <= algebra.MAX_FIELD_DEGREE
    # L = 2002 gives degree phi(4004)/2 = 720
    with pytest.raises(CapExceededError) as exc:
        field_for_lcm(2002)
    assert exc.value.info == {"cap": algebra.MAX_FIELD_DEGREE, "degree": 720}



def test_huge_label_refused_before_factoring():
    # degree phi(2L)/2 >= sqrt(L)/2 exceeds the cap for every L above 4 * cap**2;
    # 2305843009213693951 is prime, so trial division of 2L would not finish
    bound = 4 * algebra.MAX_FIELD_DEGREE**2
    assert bound == 65536
    for L in (bound + 1, 2 * 2305843009213693951):
        with pytest.raises(CapExceededError) as exc:
            field_for_lcm(L)
        assert exc.value.info == {"cap": algebra.MAX_FIELD_DEGREE}
