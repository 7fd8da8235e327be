"""Exact arithmetic in Z[c]: minimal polynomials, operations on coefficient
tuples, signs, the doubled form."""

import math
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


def _add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _neg(a):
    return tuple(-x for x in a)


def test_generator_satisfies_golden_identity():
    f = field_for_lcm(5)
    c = f.generator
    golden = _sub(_sub(f.mul(c, c), c), f.one)
    assert not any(golden)
    assert f.sign(_sub(c, f.one)) == 1
    assert f.sign(golden) == 0


def _random_element(field, rng, span=60):
    return field.element([rng.randint(-span, span) for _ in range(field.degree)])


@pytest.mark.parametrize("L", [5, 12, 30])
def test_field_axioms_randomized(L):
    """The ring axioms on coefficient tuples: `mul` and coefficientwise sums."""
    field = field_for_lcm(L)
    mul = field.mul
    rng = random.Random(1000 + L)
    three = field.integer(3)
    for _ in range(60):
        a = _random_element(field, rng)
        b = _random_element(field, rng)
        c = _random_element(field, rng)
        assert _add(a, b) == _add(b, a)
        assert mul(a, b) == mul(b, a)
        assert _add(_add(a, b), c) == _add(a, _add(b, c))
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert mul(a, _add(b, c)) == _add(mul(a, b), mul(a, c))
        assert _add(a, field.zero) == a
        assert mul(a, field.one) == a
        assert mul(a, field.zero) == field.zero
        assert not any(_sub(a, a))
        assert _sub(a, b) == _add(a, _neg(b))
        assert mul(a, three) == mul(three, a) == _add(_add(a, a), a)


def test_sign_matches_high_precision_floats():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 80
    field = field_for_lcm(30)
    c = 2 * mpmath.cos(mpmath.pi / 30)
    rng = random.Random(42)
    for _ in range(1000):
        a = _random_element(field, rng, span=999)
        value = sum(n * c**i for i, n in enumerate(a))
        expected = 0 if value == 0 else (1 if value > 0 else -1)
        assert field.sign(a) == expected


def _assert_canonical(x, degree):
    assert type(x) is tuple and len(x) == degree
    assert all(type(n) is int for n in x)


@pytest.mark.parametrize("L,degree", [(1, 1), (5, 2), (20, 8)])
def test_integer_add_sub_skip_normalize(L, degree):
    """Every element the field hands out, products included, is a tuple of
    `degree` integers, and sums need no normalising pass."""
    field = field_for_lcm(L)
    assert field.degree == degree
    for x in (field.zero, field.one, field.generator, field.integer(-7)):
        _assert_canonical(x, degree)
    assert field.zero == (0,) * degree
    assert field.one == (1,) + (0,) * (degree - 1)
    rng = random.Random(7 * L)
    for _ in range(100):
        a = field.element([rng.randint(-50, 50) for _ in range(degree)])
        b = field.element([rng.randint(-50, 50) for _ in range(degree)])
        b = a if rng.random() < 0.2 else b
        _assert_canonical(a, degree)
        _assert_canonical(field.mul(a, b), degree)
        assert field.element(_add(a, b)) == _add(a, b)
        assert _add(a, _sub(field.zero, a)) == field.zero


@pytest.mark.parametrize("L", [1, 5, 12])
def test_element_takes_integers_only(L):
    field = field_for_lcm(L)
    assert field.element([3]) == field.integer(3) == (3,) + (0,) * (field.degree - 1)
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
        assert (a == b) == (field.sign(_sub(a, b)) == 0)


def test_form_values():
    """The doubled form 2(alpha_i|alpha_j) = -2cos(pi/m)."""
    d = parse_diagram("a b c d; a-b:3 b-c:4 c-d:5")
    f = algebra.field_for(d)
    assert f.L == 20
    assert algebra.form_value(d, 0, 0, f) == f.integer(2)
    assert algebra.form_value(d, 0, 2, f) == f.zero  # m = 2
    assert algebra.form_value(d, 0, 1, f) == f.integer(-1)  # m = 3
    x4 = algebra.form_value(d, 1, 2, f)  # -2cos(pi/4) = -sqrt(2)
    assert f.sign(x4) == -1
    assert f.mul(x4, x4) == f.integer(2)
    x5 = algebra.form_value(d, 2, 3, f)  # -2cos(pi/5) = -(1+sqrt(5))/2
    assert not any(_sub(_add(f.mul(x5, x5), x5), f.one))
    # -x is the golden ratio 2cos(pi/5)
    z = _neg(x5)
    assert not any(_sub(_sub(f.mul(z, z), z), f.one))


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
        assert f.sign(_sub(two, val)) >= 0 and f.sign(_add(val, two)) >= 0
        gap = _sub(four, f.mul(val, val))
        if d.label(0, j) == math.inf:
            assert f.sign(gap) == 0
        else:
            assert f.sign(gap) == 1
    # diagonal: 4 - f^2 vanishes
    diag = algebra.form_value(d, 0, 0, f)
    assert f.sign(_sub(four, f.mul(diag, diag))) == 0


def _definiteness(d):
    field = algebra.field_for(d)
    return algebra.definiteness(algebra.gram(d, field), field)


def test_gram_definiteness_examples():
    a2 = parse_diagram("a b; a-b")
    assert _definiteness(a2) == Definiteness.POS_DEF
    a2t = parse_diagram("a b c; a-b b-c a-c")
    assert _definiteness(a2t) == Definiteness.POS_SEMIDEF_SINGULAR
    i2inf = parse_diagram("a b; a-b:inf")
    g = algebra.gram(i2inf)
    assert g[0][1] == algebra.field_for(i2inf).integer(-2)
    assert _definiteness(i2inf) == Definiteness.POS_SEMIDEF_SINGULAR
    b3 = parse_diagram("a b c; a-b b-c:4")
    assert _definiteness(b3) == Definiteness.POS_DEF
    hyp = parse_diagram("a b c; a-b b-c a-c:4")
    assert _definiteness(hyp) == Definiteness.OTHER


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
