"""References for the tests, independent of the group engine's right
steps and walks: the dense column-matrix product, lengths from a fresh
ShortLex walk on an element's columns alone, and minimal coset
representatives filtered from a subgroup's ball."""

from coxwalk import _kernel as K
from coxwalk.diagram import subdiagram
from coxwalk.element import GroupElement, group_for


def column_product(g, a, b):
    """Columns of the matrix product a @ b: column j is a applied to b's
    column j, with n^3 field products."""
    n = g.n
    mp = g.field._mp_low
    rows = [[a[k][i] for k in range(n)] for i in range(n)]
    return tuple(tuple(K.dot_mod(rows[i], col, mp) for i in range(n)) for col in b)


def walked_length(g, cols):
    """The length of the element with these columns, from the normal-form
    walk of an element that carries no tracked length or word."""
    return len(GroupElement(g, cols, None).shortlex_nf())


def product_length(u, v):
    """l(u * v) from the column product and a fresh walk."""
    g = u.group
    return walked_length(g, column_product(g, u.cols, v.cols))


def coset_reps_by_ball(g, J, K, radius):
    """ShortLex words, sorted by (length, ShortLex), of the elements of W_J
    with no right descent in K and length <= radius, by the definition: a
    filter over the whole ball of the parabolic subgroup's own group."""
    sub = group_for(subdiagram(g.diagram, J))
    words = [
        tuple(J[t] for t in el.shortlex_nf())
        for el in sub.ball(radius)
        if not {J[t] for t in el.right_descents()} & set(K)
    ]
    return sorted(words, key=lambda word: (len(word), word))
