"""Closed-form counts for finite and affine types, computed here with
integers only, so they share no code with the automaton or the group
engine they check.

- Stanley (Europ. J. Combin. 5, 1984): the reduced words of the longest
  element w0 of A_n number the standard Young tableaux of the staircase
  (n, n-1, ..., 1).  Haiman (Discrete Math. 99, 1992): in B_n, those of
  the n x n square.  In a finite group every reduced word of length
  N = l(w0) spells w0, and no word of length N + 1 is reduced.
- Bott (1956; Humphreys, Reflection Groups and Coxeter Groups, ch. 8):
  an affine Weyl group has the Poincare series
  W(t) = W0(t) prod_i 1/(1 - t^m_i), over the exponents m_i of its finite
  Weyl group W0, whose own series is W0(t) = prod_i (1 + t + ... + t^m_i).
- A finite Coxeter group has the Poincare series W(t) = prod_i [d_i]_t,
  [d]_t = 1 + t + ... + t^(d-1), over its degrees d_i (Humphreys, ch. 3),
  a polynomial of degree N = sum_i (d_i - 1) = l(w0).
"""

import math
from importlib import resources

import pytest

from coxwalk.automaton import build
from coxwalk.diagram import parse_diagram
from coxwalk.element import group_for


def _path(n, last_label=3):
    """The path diagram on n generators, its last edge labelled last_label."""
    names = [f"g{i}" for i in range(n)]
    edges = [f"{names[i]}-{names[i + 1]}" for i in range(n - 2)]
    edges.append(f"{names[n - 2]}-{names[n - 1]}:{last_label}")
    return parse_diagram(" ".join(names) + "; " + " ".join(edges))


def _tableaux(shape):
    """Standard Young tableaux of a partition, by the hook length formula."""
    columns = [sum(1 for row in shape if row > j) for j in range(shape[0])]
    hooks = 1
    for i, row in enumerate(shape):
        for j in range(row):
            hooks *= (row - j) + (columns[j] - i) - 1
    return math.factorial(sum(shape)) // hooks


def _staircase(n):
    return tuple(range(n, 0, -1))


def test_hook_length_formula_on_small_shapes():
    # Stanley's counts for A1..A6, and the squares of B2 and B3
    assert [_tableaux(_staircase(n)) for n in range(1, 7)] == [
        1, 2, 16, 768, 292_864, 1_100_742_656
    ]
    assert [_tableaux((n,) * n) for n in (2, 3)] == [2, 42]


CASES = [("A", n, _staircase(n)) for n in range(2, 8)] + [("B", n, (n,) * n) for n in range(2, 6)]


@pytest.mark.parametrize("kind, n, shape", CASES, ids=[f"{k}{n}" for k, n, _ in CASES])
def test_automaton_counts_reduced_words_of_the_longest_element(kind, n, shape):
    auto = build(_path(n, 3 if kind == "A" else 4))
    N = sum(shape)
    assert auto.count_reduced_words(N) == _tableaux(shape)
    assert auto.count_reduced_words(N + 1) == 0


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_interval_walk_counts_reduced_expressions_of_the_longest_element(n):
    g = group_for(_path(n))
    # w0 of A_n from the reduced word (s0)(s1 s0)(s2 s1 s0)...
    w0 = g.element_of(tuple(s for top in range(n) for s in range(top, -1, -1)))
    assert w0.length() == n * (n + 1) // 2
    assert g.count_reduced_expressions(w0) == _tableaux(_staircase(n))


def _degree_product(degrees):
    """Coefficients of prod_i [d_i]_t, [d]_t = 1 + t + ... + t^(d-1)."""
    N = sum(d - 1 for d in degrees)
    series = [1] + [0] * N
    for d in degrees:
        series = [sum(series[max(0, k - d + 1) : k + 1]) for k in range(N + 1)]
    return series


def _bott_series(exponents, radius):
    """Coefficients 0..radius of W0(t) prod_i 1/(1 - t^m_i); the degrees of
    W0 are its exponents plus one."""
    series = (_degree_product([m + 1 for m in exponents]) + [0] * radius)[: radius + 1]
    for m in exponents:
        for k in range(m, radius + 1):
            series[k] += series[k - m]
    return series


@pytest.mark.parametrize(
    "name, exponents, radius",
    [
        ("affine_a2", (1, 2), 8),
        ("affine_c2", (1, 3), 8),
        ("affine_g2", (1, 5), 8),
        ("affine_b3", (1, 3, 5), 6),
    ],
)
def test_ball_counts_follow_bott(name, exponents, radius):
    text = resources.files("coxwalk").joinpath("fixtures", f"{name}.cox").read_text()
    counts = group_for(parse_diagram(text)).ball(radius).counts
    assert counts == _bott_series(exponents, radius)


@pytest.mark.parametrize(
    "name, degrees",
    [
        ("a1", (2,)),
        ("a2", (2, 3)),
        ("a3", (2, 3, 4)),
        ("a4", (2, 3, 4, 5)),
        ("b3", (2, 4, 6)),
        ("h3", (2, 6, 10)),
    ],
)
def test_ball_counts_follow_the_degrees(name, degrees):
    # the ball one past N = l(w0) holds the whole group and nothing longer
    text = resources.files("coxwalk").joinpath("fixtures", f"{name}.cox").read_text()
    N = sum(d - 1 for d in degrees)
    assert group_for(parse_diagram(text)).ball(N + 1).counts == _degree_product(degrees)
