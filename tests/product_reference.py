"""A reference product for the tests, independent of the group engine's
right steps: the dense column-matrix product, and lengths from a fresh
ShortLex walk on an element's columns alone."""

from coxwalk import _kernel as K
from coxwalk.element import GroupElement


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
