"""Arithmetic kernels.

These are the hot inner loops of the exact field arithmetic: polynomial
multiplication modulo a monic integer minimal polynomial, rational dot
products, and certified sign evaluation over dyadic intervals.  They
operate on plain Python integers, so every result is exact.

Conventions: polynomials are little-endian coefficient sequences.  A field
element is a pair (nums, den): integer numerators in the power basis and a
positive common denominator.  `mp_low` holds the low d coefficients of the
monic minimal polynomial x^d + mp_low[d-1] x^(d-1) + ... + mp_low[0].
"""

from math import gcd

BACKEND = "pure"


def poly_mul_mod(a, b, mp_low):
    """(a * b) reduced modulo the monic polynomial with low part mp_low."""
    d = len(mp_low)
    r = [0] * (2 * d - 1)
    for i in range(d):
        ai = a[i]
        if ai:
            for j in range(d):
                bj = b[j]
                if bj:
                    r[i + j] += ai * bj
    for i in range(2 * d - 2, d - 1, -1):
        c = r[i]
        if c:
            base = i - d
            for j in range(d):
                mj = mp_low[j]
                if mj:
                    r[base + j] -= c * mj
    del r[d:]
    return r


def normalize(nums, den):
    """Divide out gcd(nums, den); den stays positive.  Returns (tuple, int)."""
    g = den
    for x in nums:
        if x:
            g = gcd(g, x)
            if g == 1:
                return tuple(nums), den
    if g > 1:
        return tuple(x // g for x in nums), den // g
    return tuple(nums), den


def dot_mod(anums, adens, bnums, bdens, mp_low):
    """Normalized sum of products a_k * b_k of field elements.

    anums/bnums are sequences of numerator vectors, adens/bdens the
    matching denominators.  Used for exact matrix products.
    """
    d = len(mp_low)
    acc = [0] * d
    acc_den = 1
    for k in range(len(anums)):
        tn = poly_mul_mod(anums[k], bnums[k], mp_low)
        if not any(tn):
            continue
        td = adens[k] * bdens[k]
        g = gcd(acc_den, td)
        sa = td // g
        st = acc_den // g
        for i in range(d):
            acc[i] = acc[i] * sa + tn[i] * st
        acc_den *= sa
    return normalize(acc, acc_den)


def interval_sign(nums, lo, hi, shift):
    """Sign of sum nums[i] * c^i for any c in [lo, hi] / 2^shift.

    Exact integer interval Horner; returns +1 or -1 when the interval
    excludes zero, else 0 (inconclusive: refine the interval and retry).
    """
    d = len(nums)
    a = b = nums[d - 1]
    cur = 0
    for i in range(d - 2, -1, -1):
        p1 = a * lo
        p2 = a * hi
        p3 = b * lo
        p4 = b * hi
        a = min(p1, p2, p3, p4)
        b = max(p1, p2, p3, p4)
        cur += shift
        n = nums[i]
        if n:
            t = n << cur
            a += t
            b += t
    if a > 0:
        return 1
    if b < 0:
        return -1
    return 0


def eval_sign_at_dyadic(coeffs, num, shift):
    """Exact sign of the integer polynomial `coeffs` at the point num / 2^shift."""
    acc = coeffs[-1]
    cur = 0
    for i in range(len(coeffs) - 2, -1, -1):
        acc *= num
        cur += shift
        c = coeffs[i]
        if c:
            acc += c << cur
    if acc > 0:
        return 1
    if acc < 0:
        return -1
    return 0
