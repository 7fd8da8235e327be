"""Arithmetic kernels.

These are the hot inner loops of the exact arithmetic in Z[c]: polynomial
multiplication modulo a monic integer minimal polynomial, dot products of
ring elements, and certified sign evaluation over dyadic intervals.  They
operate on plain Python integers, so every result is exact.

Conventions: polynomials are little-endian coefficient sequences.  A ring
element is its tuple of integer coefficients in the power basis.  `mp_low`
holds the low d coefficients of the monic minimal polynomial
x^d + mp_low[d-1] x^(d-1) + ... + mp_low[0].
"""

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


def dot_mod(anums, bnums, mp_low):
    """Sum of the products a_k * b_k of ring elements, as a tuple.

    anums/bnums are sequences of coefficient vectors.  Used for the
    form values of the automaton's root table.
    """
    acc = [0] * len(mp_low)
    for a, b in zip(anums, bnums):
        for i, x in enumerate(poly_mul_mod(a, b, mp_low)):
            acc[i] += x
    return tuple(acc)


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
