"""Exact arithmetic in the ring Z[c] of the real cyclotomic field Q(c),
c = 2cos(pi/L).

A Coxeter diagram's field takes L to be the lcm of its finite labels >= 4
(1 if there is none): 2cos(pi/2) = 0 and 2cos(pi/3) = 1 are integers, so
labels 2 and 3 need no extension.  Every other doubled form value
-2cos(pi/m) lies in Z[c]: 2cos(pi/m) = D_{L/m}(c) with D_k the monic
integer Dickson polynomial 2*T_k(x/2).  Since c is an algebraic integer, its
minimal polynomial is monic with integer coefficients, so the doubled form,
every matrix of the geometric representation and every root have integer
coefficient vectors in the power basis 1, c, ..., c^(d-1).

A field element is that vector itself: a tuple of d integers, reduced
modulo the minimal polynomial, so equality and hashing are structural and
zero is the all-zero tuple.  Sums, differences and negations are
coefficientwise.  The two operations that need field data belong to the
FieldSpec: `mul`, the product reduced modulo the minimal polynomial, and
`sign`, decided by exact interval arithmetic over dyadic rationals,
refining an isolating interval for c by bisection until zero is excluded.
"""

import functools
import math
from operator import sub

from . import _kernel as K

__all__ = [
    "CapExceededError",
    "MAX_FIELD_DEGREE",
    "FieldSpec",
    "Definiteness",
    "field_for",
    "field_for_lcm",
    "form_value",
    "gram",
    "definiteness",
    "minpoly_2cos_pi_over",
]


# Largest field degree phi(2L)/2 that field_for_lcm accepts, L the lcm of the
# finite labels >= 4 (1 if there is none).  The built-in fixtures need at most
# 8 (L = 20), and any diagram whose finite labels are all <= 7 at most 96
# (L = 420).  Labels 7, 11, 13 (L = 1001) would need 360; at degree 720
# `compare` on that path had not finished after 40 s.
MAX_FIELD_DEGREE = 128


class CapExceededError(RuntimeError):
    """A configured size or iteration cap was hit."""

    def __init__(self, message, **info):
        super().__init__(message)
        self.info = info


# ---------------------------------------------------------------------------
# integer polynomial helpers (little-endian coefficient lists)

def _poly_mul(a, b):
    r = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                r[i + j] += ai * bj
    return r


def _poly_divexact(num, div):
    """Exact division by a monic integer polynomial; remainder must vanish."""
    num = list(num)
    dn = len(div) - 1
    quot = [0] * (len(num) - dn)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        if c:
            quot[i - dn] = c
            for j in range(dn + 1):
                num[i - dn + j] -= c * div[j]
    if any(num[:dn]):
        raise ArithmeticError("inexact polynomial division")
    return quot


def _poly_sqrt(p):
    """Exact square root of a monic integer polynomial of even degree."""
    if len(p) % 2 == 0:
        raise ArithmeticError("odd degree has no polynomial square root")
    m = (len(p) - 1) // 2
    q = [0] * (m + 1)
    q[m] = 1
    for i in range(m - 1, -1, -1):
        s = 0
        for j in range(i + 1, m):
            s += q[j] * q[m + i - j]
        c = p[m + i] - s
        if c % 2:
            raise ArithmeticError("polynomial is not a perfect square")
        q[i] = c // 2
    if _poly_mul(q, q) != list(p):
        raise ArithmeticError("polynomial is not a perfect square")
    return q


def _dickson(k):
    """Coefficients of 2*T_k(x/2), the monic integer form of cos(k*theta)."""
    if k == 0:
        return [2]
    prev, cur = [2], [0, 1]
    for _ in range(k - 1):
        nxt = [0] + cur
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, nxt
    return cur


def _divisors(n):
    out = []
    i = 1
    while i * i <= n:
        if n % i == 0:
            out.append(i)
            if i != n // i:
                out.append(n // i)
        i += 1
    return sorted(out)


def _totient(n):
    result = n
    p = 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            result -= result // p
        p += 1
    if n > 1:
        result -= result // n
    return result


@functools.lru_cache(maxsize=None)
def minpoly_2cos_pi_over(L):
    """Minimal polynomial of 2cos(pi/L), monic with integer coefficients.

    Derived from the Chebyshev relation cos(L*theta) = T_L(cos theta):
    2cos(pi/L) is a root of 2*T_L(x/2) + 2, whose distinct irreducible
    factors are the minimal polynomials of 2cos(pi/L') for the divisors L'
    of L with L/L' odd.  Dividing those out recursively and taking the
    exact square root leaves the factor vanishing at 2cos(pi/L).
    """
    if L < 1:
        raise ValueError("L must be a positive integer")
    if L == 1:
        return (2, 1)
    p = _dickson(L)
    p[0] += 2
    for div in _divisors(L):
        if div == L or (L // div) % 2 == 0:
            continue
        if div == 1:
            p = _poly_divexact(p, (2, 1))
        else:
            m = minpoly_2cos_pi_over(div)
            p = _poly_divexact(_poly_divexact(p, m), m)
    return tuple(_poly_sqrt(p))


def _refine_interval(mp, lo, hi, shift, steps):
    """Halve an isolating interval for the largest root of mp, `steps` times.

    The invariant mp(lo) < 0 < mp(hi) is maintained, so the interval always
    brackets the root.  Degenerate intervals (rational root pinned exactly)
    pass through unchanged.
    """
    if lo == hi:
        return lo, hi, shift
    for _ in range(steps):
        lo <<= 1
        hi <<= 1
        shift += 1
        mid = (lo + hi) >> 1
        s = K.eval_sign_at_dyadic(mp, mid, shift)
        if s == 0:
            return mid, mid, shift
        if s < 0:
            lo = mid
        else:
            hi = mid
    return lo, hi, shift


class FieldSpec:
    """The real cyclotomic field Q(2cos(pi/L)), whose elements here all lie
    in its ring Z[2cos(pi/L)].

    Carries the minimal polynomial (monic, integer, little-endian including
    the leading 1), the degree, and an isolating dyadic interval for the
    generator used by sign certification.  Its elements are canonical
    coefficient tuples; `mul` and `sign` are the operations on them that
    need the field.  Instances are immutable and shared; obtain them
    through field_for / field_for_lcm.
    """

    __slots__ = ("L", "degree", "minpoly", "_mp_low", "_iso", "_zero", "_one", "_gen")

    def __init__(self, L):
        mp = minpoly_2cos_pi_over(L)
        d = len(mp) - 1
        expected = _field_degree(L)
        if d != expected:
            raise ArithmeticError(f"minimal polynomial degree {d} != phi(2L)/2 = {expected}")
        approx = 2.0 * math.cos(math.pi / L)
        self.L = L
        self.degree = d
        self.minpoly = mp
        self._mp_low = mp[:-1]
        self._iso = self._isolate(approx)
        # the isolating interval is certified by exact sign changes of the
        # minimal polynomial; checking it still contains the numeric value
        # ties that root to 2cos(pi/L) itself
        lo, hi, shift = self._iso
        scale = float(1 << shift)
        if not lo / scale - 1e-9 <= approx <= hi / scale + 1e-9:
            raise ArithmeticError("isolating interval does not contain 2cos(pi/L)")
        self._zero = self.integer(0)
        self._one = self.integer(1)
        if d >= 2:
            g = [0] * d
            g[1] = 1
            self._gen = tuple(g)
        else:
            self._gen = self.integer(-mp[0])

    def _isolate(self, approx):
        if self.degree == 1:
            c = -self.minpoly[0]
            return (c, c, 0)
        # 2cos(pi/L) is the largest root; separate it from the next
        # conjugate 2cos(k*pi/L).  Conjugate gaps dwarf float error for any
        # realistic L, and the bracketing signs are then certified exactly.
        L = self.L
        conj = sorted(
            2.0 * math.cos(math.pi * k / L)
            for k in range(1, L)
            if math.gcd(k, 2 * L) == 1
        )
        margin = (conj[-1] - conj[-2]) / 4.0
        shift = 32
        lo = math.floor((approx - margin) * (1 << shift))
        hi = 2 << shift
        if K.eval_sign_at_dyadic(self.minpoly, lo, shift) >= 0:
            raise ArithmeticError("failed to bracket 2cos(pi/L) from below")
        if K.eval_sign_at_dyadic(self.minpoly, hi, shift) <= 0:
            raise ArithmeticError("failed to bracket 2cos(pi/L) from above")
        return _refine_interval(self.minpoly, lo, hi, shift, 32)

    @property
    def zero(self):
        return self._zero

    @property
    def one(self):
        return self._one

    @property
    def generator(self):
        """2cos(pi/L) as a coefficient tuple."""
        return self._gen

    def element(self, coeffs):
        """The canonical tuple of integer coefficients in the power basis,
        padded with zeros to the degree: the checked entry point for values
        from outside the library."""
        coeffs = list(coeffs)
        if len(coeffs) > self.degree:
            raise ValueError("coefficient vector longer than field degree")
        if not all(isinstance(c, int) for c in coeffs):
            raise ValueError(f"coefficients {coeffs!r} are not all integers")
        return tuple(coeffs) + (0,) * (self.degree - len(coeffs))

    def integer(self, n):
        """Embed an integer."""
        return (n,) + (0,) * (self.degree - 1)

    def mul(self, a, b):
        """The product of the elements a and b, reduced modulo the minimal
        polynomial."""
        return tuple(K.poly_mul_mod(a, b, self._mp_low))

    def sign(self, nums):
        """-1, 0 or +1: the exact sign of the element with the canonical
        coefficient tuple nums.

        Zero is decided structurally (canonical form).  Otherwise the size
        is certified by interval evaluation at an isolating interval for
        the field generator, bisected with per-call state until zero is
        excluded; termination is guaranteed because a nonzero canonical
        vector evaluates to a nonzero real.
        """
        if not any(nums):
            return 0
        lo, hi, shift = self._iso
        while True:
            s = K.interval_sign(nums, lo, hi, shift)
            if s:
                return s
            lo, hi, shift = _refine_interval(self.minpoly, lo, hi, shift, shift)

    def __repr__(self):
        return f"FieldSpec(L={self.L}, degree={self.degree})"


def _field_degree(L):
    """Degree of Q(2cos(pi/L)) over Q: phi(2L)/2, and 1 for L = 1."""
    return _totient(2 * L) // 2 if L >= 2 else 1


@functools.lru_cache(maxsize=None)
def field_for_lcm(L):
    """The field Q(2cos(pi/L)); its degree is checked against MAX_FIELD_DEGREE
    before any polynomial is computed.

    Since phi(n) >= sqrt(n/2), the degree phi(2L)/2 is at least sqrt(L)/2,
    so an L above 4 * MAX_FIELD_DEGREE**2 is refused before 2L is factored.
    """
    if L > 4 * MAX_FIELD_DEGREE**2:
        raise CapExceededError(
            f"label lcm {L} needs a field of degree above the cap of {MAX_FIELD_DEGREE}",
            cap=MAX_FIELD_DEGREE,
        )
    degree = _field_degree(L)
    if degree > MAX_FIELD_DEGREE:
        raise CapExceededError(
            f"label lcm {L} needs a field of degree {degree}, "
            f"above the cap of {MAX_FIELD_DEGREE}",
            cap=MAX_FIELD_DEGREE,
            degree=degree,
        )
    return FieldSpec(L)


def field_for(diagram):
    """Field housing all form values of the diagram: L = lcm of the finite
    labels >= 4 (1 if there is none), since labels 2 and 3 give integer
    form values."""
    L = 1
    for i in range(diagram.rank):
        for j in range(i + 1, diagram.rank):
            m = diagram.label(i, j)
            if not math.isinf(m) and m > 3:
                L = math.lcm(L, int(m))
    return field_for_lcm(L)


# ---------------------------------------------------------------------------
# bilinear form of a diagram

def form_value(diagram, i, j, field=None):
    """The doubled form value 2(alpha_i|alpha_j) = -2cos(pi/m(i,j)) as the
    coefficient tuple of an element of Z[c]: 2 on the diagonal, 0 for m = 2,
    -1 for m = 3, -2 for m = oo, and -D_{L/m}(c) otherwise.

    A finite label m >= 4 must divide field.L; otherwise ValueError.
    """
    if field is None:
        field = field_for(diagram)
    if i == j:
        return field.integer(2)
    m = diagram.label(i, j)
    if math.isinf(m):
        return field.integer(-2)
    if m == 2:
        return field.zero
    if m == 3:
        return field.integer(-1)
    k, rem = divmod(field.L, int(m))
    if rem:
        raise ValueError(f"label {m} does not divide the field's L = {field.L}")
    c = field.generator
    acc = field.zero
    for coeff in reversed(_dickson(k)):
        acc = field.mul(acc, c)
        acc = (acc[0] - coeff,) + acc[1:]
    return acc


def gram(diagram, field=None):
    """The doubled Gram matrix 2(alpha_i|alpha_j), as a tuple of row tuples.
    Doubling keeps the sign of every pivot, so `definiteness` reads it as it
    would the form itself."""
    if field is None:
        field = field_for(diagram)
    n = diagram.rank
    return tuple(tuple(form_value(diagram, i, j, field) for j in range(n)) for i in range(n))


class Definiteness:
    POS_DEF = "PosDef"
    POS_SEMIDEF_SINGULAR = "PosSemiDefSingular"
    OTHER = "Other"


def definiteness(rows, field):
    """Classify a symmetric matrix (rows of elements of field) by exact pivot
    signs.

    Positive definite iff all pivots positive; positive semidefinite and
    singular iff pivots nonnegative with at least one zero pivot whose whole
    trailing row vanishes; anything else (negative pivot, or a zero pivot
    with a nonzero trailing row) is indefinite or negative.  The elimination
    is division-free: a positive pivot p updates a[i][j] to
    p*a[i][j] - a[i][k]*a[k][j], which scales row i of the true Schur
    complement by p > 0, so every later pivot keeps its sign and every zero
    row stays zero.
    """
    n = len(rows)
    a = [list(row) for row in rows]
    mul = field.mul
    saw_zero = False
    for k in range(n):
        p = a[k][k]
        s = field.sign(p)
        if s < 0:
            return Definiteness.OTHER
        if s == 0:
            if any(any(a[k][j]) for j in range(k + 1, n)):
                return Definiteness.OTHER
            saw_zero = True
            continue
        for i in range(k + 1, n):
            f = a[i][k]
            if not any(f):
                continue
            for j in range(k + 1, n):
                a[i][j] = tuple(map(sub, mul(p, a[i][j]), mul(f, a[k][j])))
    return Definiteness.POS_SEMIDEF_SINGULAR if saw_zero else Definiteness.POS_DEF
