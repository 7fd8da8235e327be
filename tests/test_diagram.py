"""Diagram parsing, components, subdiagrams, classification."""

import math
import random

import pytest

from coxwalk import algebra
from coxwalk import diagram as dm
from coxwalk.diagram import (
    CoxeterDiagram,
    DiagramClass,
    DiagramError,
    ReducibleDiagramError,
    classify,
    components,
    is_locally_finite,
    parse_diagram,
    subdiagram,
)
from coxwalk.element import CapExceededError, group_for


def test_parse_basic():
    d = parse_diagram("a b c; a-b:5 b-c:4")
    assert d.rank == 3
    assert d.label(0, 1) == 5
    assert d.label(1, 2) == 4
    assert d.label(0, 2) == 2
    assert d.label(1, 0) == 5


def test_parse_infinite_dihedral():
    d = parse_diagram("a b; a-b:inf")
    assert math.isinf(d.label(0, 1))


def test_parse_case_vi_shape():
    d = parse_diagram("a b c d e; a-b:5 b-c c-d d-e")
    assert d.rank == 5
    assert d.label(0, 1) == 5
    assert [d.label(i, i + 1) for i in range(1, 4)] == [3, 3, 3]


def test_parse_comments_and_newlines():
    text = "# heading\na b  c\n# more\na-b:5  b-c:4  # trailing\n"
    d = parse_diagram(text)
    assert d.names == ("a", "b", "c")
    assert d.label(0, 1) == 5


@pytest.mark.parametrize(
    "text",
    [
        "",                    # empty
        "a a; a-a:3",          # duplicate names
        "a b; a-b:1",          # label below 2
        "a b; a-b:x",          # bad label
        "a b; a-b:1_0",        # int() would read 10
        "a b; a-b:\u0663",     # an Arabic-Indic 3, which int() also reads
        "a b; a-c:3",          # unknown generator
        "a b; a-b:3 a-b:4",    # duplicate edge
        "a b; a-b:3 b-a:4",    # duplicate edge, flipped
        "a b; a-a:3",          # self loop
        "a b; ab:3",           # malformed token
    ],
)
def test_parse_errors(text):
    with pytest.raises(DiagramError):
        parse_diagram(text)


# int() would truncate 2.5 to 2, a commuting pair, and read "3" as 3,
# isinf() let -inf through as a label, and NaN fails a symmetry test against
# itself; the error names the label
@pytest.mark.parametrize("m", [2.5, "3", -math.inf, math.nan])
def test_labels_not_integral_refused(m):
    with pytest.raises(DiagramError, match="edge label"):
        CoxeterDiagram(("a", "b"), [[1, m], [m, 1]])
    with pytest.raises(DiagramError):
        dm.from_edges(("a", "b"), [("a", "b", m)])


def test_asymmetric_labels_refused():
    with pytest.raises(DiagramError, match="not symmetric"):
        CoxeterDiagram(("a", "b"), [[1, 3], [4, 1]])


def test_roundtrip_text():
    d = parse_diagram("a b c; a-b:5 b-c")
    assert parse_diagram(d.to_text()) == d


def test_components():
    two = parse_diagram("a b")
    assert components(two) == ((0,), (1,))
    case_vi = parse_diagram("s t u v w; s-t:5 t-u u-v v-w")
    assert components(case_vi) == ((0, 1, 2, 3, 4),)
    mixed = parse_diagram("a b c d; a-b c-d:inf")
    assert components(mixed) == ((0, 1), (2, 3))


def test_subdiagram():
    d = parse_diagram("s t u v w; s-t:5 t-u u-v v-w")
    assert subdiagram(d, range(5)) == d
    empty = subdiagram(d, [])
    assert empty.rank == 0
    st = subdiagram(d, [0, 1])
    assert st.names == ("s", "t")
    assert st.label(0, 1) == 5
    with pytest.raises(DiagramError):
        subdiagram(d, [9])


def test_classify_examples():
    assert classify(parse_diagram("a b c; a-b b-c")) == DiagramClass.FINITE
    assert classify(parse_diagram("a b c; a-b b-c a-c")) == DiagramClass.AFFINE
    assert (
        classify(parse_diagram("s t u v w; s-t:5 t-u u-v v-w"))
        == DiagramClass.COMPACT_HYPERBOLIC
    )
    four_cycle = parse_diagram("a b c d; a-b:4 b-c c-d d-a")
    assert classify(four_cycle) == DiagramClass.COMPACT_HYPERBOLIC
    assert classify(parse_diagram("a b; a-b:inf")) == DiagramClass.AFFINE
    assert (
        classify(parse_diagram("a b c; a-b:inf b-c:inf a-c:inf"))
        == DiagramClass.OTHER_INFINITE
    )


def test_classify_large_dihedral_needs_no_field():
    # the Gram matrix of I2(1000) would live in a field of degree 400
    assert classify(parse_diagram("s t; s-t:1000")) == DiagramClass.FINITE


def test_classify_errors():
    with pytest.raises(ReducibleDiagramError):
        classify(parse_diagram("a b"))
    with pytest.raises(DiagramError):
        classify(CoxeterDiagram((), ()))


@pytest.mark.parametrize(
    "text, expected",
    [
        ("s t u; s-t:7 t-u", DiagramClass.COMPACT_HYPERBOLIC),  # triangle_237
        ("s t u; s-t:8 t-u:4", DiagramClass.COMPACT_HYPERBOLIC),
        ("s t u; s-t:7 t-u u-s", DiagramClass.COMPACT_HYPERBOLIC),
        ("s t u v; s-t:7 t-u u-v", DiagramClass.OTHER_INFINITE),
    ],
)
def test_large_label_shortcut_agrees_with_gram(text, expected):
    # classify skips the Gram matrix at rank >= 3 with a label >= 7; the
    # Gram path must still find these neither finite nor affine
    d = parse_diagram(text)
    field = algebra.field_for(d)
    assert algebra.definiteness(algebra.gram(d, field), field) == algebra.Definiteness.OTHER
    assert classify(d) == expected


def test_is_locally_finite():
    assert is_locally_finite(parse_diagram("a b c; a-b b-c a-c"))
    assert not is_locally_finite(parse_diagram("a b c; a-b:inf b-c:inf a-c:inf"))
    assert is_locally_finite(parse_diagram("s t u v w; s-t:5 t-u u-v v-w"))


def test_compact_hyperbolic_implies_locally_finite(vctx):
    from coxwalk.verification import FIGURE1

    for name in FIGURE1:
        d = vctx.fixture(name)
        assert classify(d) == DiagramClass.COMPACT_HYPERBOLIC
        assert is_locally_finite(d)


def test_classify_stable_under_relabelling():
    rng = random.Random(11)
    samples = [
        "s t u v w; s-t:5 t-u u-v v-w",
        "a b c; a-b b-c a-c",
        "a b c; a-b b-c:4",
        "a b c d; a-b:4 b-c c-d d-a",
    ]
    for text in samples:
        d = parse_diagram(text)
        expected = classify(d)
        names = list(d.names)
        for _ in range(5):
            perm = list(range(d.rank))
            rng.shuffle(perm)
            labels = [
                [d.label(perm[i], perm[j]) for j in range(d.rank)]
                for i in range(d.rank)
            ]
            shuffled = CoxeterDiagram([names[p] for p in perm], labels)
            assert classify(shuffled) == expected


def test_finite_iff_bfs_terminates():
    finite = {
        "a b c; a-b b-c": 24,           # A3
        "a b c; a-b b-c:4": 48,         # B3
        "a b c; a-b:5 b-c": 120,        # H3
        "a b c d; a-b b-c c-d": 120,    # A4
        "a b; a-b:7": 14,
    }
    for text, order in finite.items():
        ball = group_for(parse_diagram(text)).ball(60, cap=1200)
        assert len(ball) == order
        assert classify(parse_diagram(text)) == DiagramClass.FINITE
    infinite = [
        "a b c; a-b b-c a-c",
        "a b c; a-b b-c a-c:4",
        "a b; a-b:inf",
        "a b c; a-b:inf b-c:inf a-c:inf",
    ]
    for text in infinite:
        assert classify(parse_diagram(text)) != DiagramClass.FINITE
        with pytest.raises(CapExceededError):
            group_for(parse_diagram(text)).ball(2000, cap=1200)


def test_isomorphism():
    d1 = parse_diagram("a b c; a-b:5 b-c")
    d2 = parse_diagram("x y z; y-z:5 x-y")
    perm = dm.isomorphism(d1, d2)
    assert perm is not None
    for i in range(3):
        for j in range(3):
            assert d1.label(i, j) == d2.label(perm[i], perm[j])
    assert dm.isomorphism(d1, parse_diagram("x y z; y-z:4 x-y")) is None
