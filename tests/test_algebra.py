"""Exact arithmetic in Z[c]: minimal polynomials, operations, signs, the
doubled form."""

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
    return field.element([rng.randint(-span, span) for _ in range(field.degree)])


@pytest.mark.parametrize("L", [5, 12, 30])
def test_field_axioms_randomized(L):
    """The ring axioms on integer elements."""
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
        assert a - b == a + (-b)
        assert a * 3 == 3 * a == a + a + a


def test_sign_matches_high_precision_floats():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 80
    field = field_for_lcm(30)
    c = 2 * mpmath.cos(mpmath.pi / 30)
    rng = random.Random(42)
    for _ in range(1000):
        a = _random_element(field, rng, span=999)
        value = sum(n * c**i for i, n in enumerate(a.nums))
        expected = 0 if value == 0 else (1 if value > 0 else -1)
        assert a.sign() == expected


def _assert_canonical(x):
    assert isinstance(x.nums, tuple) and len(x.nums) == x.field.degree
    assert all(type(n) is int for n in x.nums)


@pytest.mark.parametrize("L,degree", [(1, 1), (5, 2), (20, 8)])
def test_integer_add_sub_skip_normalize(L, degree):
    """Sums and differences are elementwise on the coefficient tuples, with
    no normalising pass."""
    field = field_for_lcm(L)
    assert field.degree == degree
    rng = random.Random(7 * L)
    for _ in range(100):
        a = field.element([rng.randint(-50, 50) for _ in range(degree)])
        b = field.element([rng.randint(-50, 50) for _ in range(degree)])
        b = a if rng.random() < 0.2 else b
        for op in (operator.add, operator.sub):
            got = op(a, b)
            _assert_canonical(got)
            assert got.nums == tuple(op(x, y) for x, y in zip(a.nums, b.nums))
        zero = a - a
        assert zero == field.zero and zero.nums == (0,) * degree
        assert (a + (field.zero - a)) == field.zero


@pytest.mark.parametrize("L", [1, 5, 12])
def test_element_takes_integers_only(L):
    field = field_for_lcm(L)
    assert field.element([3]) == field.integer(3) == 3
    assert field.element([]) == field.zero
    for bad in ([Fraction(1, 2)], [Fraction(2, 1)], [1.0], ["1"], [None]):
        with pytest.raises(ValueError, match="not all integers"):
            field.element(bad)
    with pytest.raises(ValueError, match="longer than field degree"):
        field.element([0] * (field.degree + 1))


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
    assert 1 + c == c + 1
    assert c * c - c * c == 0
    # no Fraction operand, float conversion, division or ordering operator:
    # elements live in Z[c] and sign() decides order
    half = Fraction(1, 2)
    for op in (
        lambda x: x + half,
        lambda x: half + x,
        lambda x: x - half,
        lambda x: half - x,
        lambda x: x * half,
        lambda x: half * x,
        float,
        lambda x: x / 2,
        lambda x: x < 1,
    ):
        with pytest.raises(TypeError):
            op(c)
    assert c != half


def test_form_values():
    """The doubled form 2(alpha_i|alpha_j) = -2cos(pi/m)."""
    d = parse_diagram("a b c d; a-b:3 b-c:4 c-d:5")
    f = algebra.field_for(d)
    assert f.L == 20
    assert algebra.form_value(d, 0, 0, f) == 2
    assert algebra.form_value(d, 0, 2, f).is_zero()  # m = 2
    assert algebra.form_value(d, 0, 1, f) == -1  # m = 3
    x4 = algebra.form_value(d, 1, 2, f)  # -2cos(pi/4) = -sqrt(2)
    assert x4.sign() == -1
    assert x4 * x4 == 2
    x5 = algebra.form_value(d, 2, 3, f)  # -2cos(pi/5) = -(1+sqrt(5))/2
    assert (x5 * x5 + x5 - 1).is_zero()
    # -x is the golden ratio 2cos(pi/5)
    z = -x5
    assert (z * z - z - 1).is_zero()


def test_form_value_label_must_divide_L():
    # Q(2cos(pi/5)) holds no cos(pi/4); L // 4 would silently read cos(pi/5)
    d = parse_diagram("a b; a-b:4")
    with pytest.raises(ValueError, match="label 4 does not divide the field's L = 5"):
        algebra.form_value(d, 0, 1, field_for_lcm(5))


def test_form_value_infinite_label():
    d = parse_diagram("a b; a-b:inf")
    f = algebra.field_for(d)
    assert algebra.form_value(d, 0, 1, f) == f.integer(-2)


def test_form_bounds():
    d = parse_diagram("a b c d e f g; a-b:3 a-c:4 a-d:5 a-e:6 a-f:7 a-g:inf")
    f = algebra.field_for(d)
    two, four = f.integer(2), f.integer(4)
    for j in range(1, 7):
        val = algebra.form_value(d, 0, j, f)
        assert (two - val).sign() >= 0 and (val + two).sign() >= 0
        gap = four - val * val
        if d.label(0, j) == math.inf:
            assert gap.sign() == 0
        else:
            assert gap.sign() == 1
    # diagonal: 4 - f^2 vanishes
    diag = algebra.form_value(d, 0, 0, f)
    assert (four - diag * diag).sign() == 0


def test_gram_definiteness_examples():
    a2 = parse_diagram("a b; a-b")
    assert algebra.definiteness(algebra.gram(a2)) == Definiteness.POS_DEF
    a2t = parse_diagram("a b c; a-b b-c a-c")
    assert algebra.definiteness(algebra.gram(a2t)) == Definiteness.POS_SEMIDEF_SINGULAR
    i2inf = parse_diagram("a b; a-b:inf")
    g = algebra.gram(i2inf)
    assert g[0][1] == algebra.field_for(i2inf).integer(-2)
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
