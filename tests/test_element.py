"""Group elements: lengths, descents, normal forms, weak order, enumeration."""

import gc
import itertools
import random
import time

import pytest

from coxwalk import element as element_mod
from coxwalk.diagram import parse_diagram
from coxwalk.element import (
    CapExceededError,
    GroupElement,
    GroupMismatchError,
    NonReducedWordError,
    format_word,
    group_for,
    parse_word,
)
from product_reference import walked_length


A3 = parse_diagram("a b c; a-b b-c")
ATILDE2 = parse_diagram("a b c; a-b b-c a-c")
T334 = parse_diagram("a b c; a-b b-c a-c:4")
I2INF = parse_diagram("a b; a-b:inf")
CASE_VI = parse_diagram("s t u v w; s-t:5 t-u u-v v-w")
CASE_V = parse_diagram("s t u v; s-t t-u:5 u-v")


def test_identity_and_involutions():
    g = group_for(A3)
    assert g.element_of(()) == g.identity
    assert g.element_of((0, 0)) == g.identity
    assert g.element_of(()).length() == 0
    assert g.element_of(()).shortlex_nf() == ()


def test_braid_relation_dihedral():
    d = parse_diagram("s t; s-t:5")
    g = group_for(d)
    assert g.element_of((0, 1, 0, 1, 0)) == g.element_of((1, 0, 1, 0, 1))
    assert g.element_of((0, 1, 0, 1, 0)).length() == 5


def test_word_index_range():
    g = group_for(A3)
    for word in ((3,), (0, 0, 3), (-1,)):
        with pytest.raises(IndexError):
            g.element_of(word)
        # checked before the walk, which would stop at the nil move (0, 0)
        with pytest.raises(IndexError):
            g.is_reduced(word)
        with pytest.raises(IndexError):
            g.inversion_set(word)


def test_generator_index_range():
    """A generator index outside 0..n-1 raises the same IndexError that
    element_of does: -1 must not wrap round to the last generator."""
    g = group_for(ATILDE2)
    w = g.element_of((0, 1))
    for s in (-1, g.n):
        message = f"generator index {s} out of range"
        for act in (g.generator, w.right_mul_gen):
            with pytest.raises(IndexError, match=message):
                act(s)
        for call in (g.element_of, g.is_reduced, g.inversion_set, g.braid_closure):
            with pytest.raises(IndexError, match=message):
                call((0, s))


def test_is_reduced():
    g = group_for(T334)
    assert g.is_reduced(())
    assert g.is_reduced((0, 1, 0, 2))
    assert not g.is_reduced((0, 0))
    # a-b has label 3, so a b a b = b a; a-c has label 4, so a c a c is the
    # longest element of that parabolic and a c a c a is not reduced
    assert not g.is_reduced((0, 1, 0, 1))
    assert g.is_reduced((0, 2, 0, 2))
    assert not g.is_reduced((0, 2, 0, 2, 0))


def test_inversion_set():
    g = group_for(T334)
    assert g.inversion_set(()) == frozenset()
    assert g.inversion_set((0, 2, 0, 2, 0)) is None
    # a c a c is reduced: one root per letter, all of them distinct
    assert len(g.inversion_set((0, 2, 0, 2))) == 4
    # the roots are the columns of the prefixes, the first one alpha_a
    assert g.identity.cols[0] in g.inversion_set((0, 1))


def test_inversion_set_of_every_reduced_expression():
    """N(w) depends on w only: all 5 reduced expressions of case v's omega
    give one set, of size l(omega)."""
    g = group_for(CASE_V)
    omega = g.element_of(parse_word(CASE_V, "utvsut"))
    exprs = g.reduced_expressions(omega)
    assert len(exprs) == 5
    sets = {g.inversion_set(expr) for expr in exprs}
    assert len(sets) == 1
    assert len(sets.pop()) == omega.length() == 6


@pytest.mark.parametrize(
    "name,radius",
    [("affine_a2", 6), ("affine_c2", 5), ("i2inf", 10), ("triangle_334", 4)],
)
def test_weak_leq_matches_inversion_set_inclusion(vctx, name, radius):
    """The right steps of weak_leq against N(v) <= N(w) on every ordered
    pair of a ball: the criterion 7 balls of verify-paper, which decide the
    weak order by inclusion, and a hyperbolic triangle."""
    g = group_for(vctx.fixture(name))
    ball = g.ball(radius).elements
    sets = [g.inversion_set(el.shortlex_nf()) for el in ball]
    for v, nv in zip(ball, sets):
        assert len(nv) == v.length()
        for w, nw in zip(ball, sets):
            assert g.weak_leq(v, w) == (nv <= nw)


def test_descents_basic():
    g = group_for(A3)
    assert g.identity.right_descents() == frozenset()
    s = g.generator(1)
    assert s.right_descents() == {1}


@pytest.mark.parametrize("d,radius", [(ATILDE2, 6), (T334, 5), (I2INF, 6), (A3, 6)])
def test_descents_match_length_definition(d, radius):
    g = group_for(d)
    for el in g.ball(radius):
        rdes = el.right_descents()
        for s in range(d.rank):
            right = el * g.generator(s)
            assert (s in rdes) == (right.length() < el.length())


def test_case_vi_lengths():
    g = group_for(CASE_VI)
    alpha = g.element_of(parse_word(CASE_VI, "stuvwstuv"))
    assert alpha.length() == 9
    w = g.generator(4)
    a7 = g.identity
    for _ in range(7):
        a7 = a7 * alpha
    wa7w = w * a7 * w
    # the length tracked along the products against a fresh walk
    assert wa7w.length() == walked_length(g, wa7w.cols) == 65
    # the final w is a right descent: appending w again drops the length
    assert 4 in wa7w.right_descents()
    assert (wa7w * w).length() == 64
    # the base elements of the antichain family are not above w
    a6w = (a7 * alpha.inverse()) * w
    assert not g.weak_leq(w, a6w)


def test_shortlex_is_lexicographically_least():
    g = group_for(T334)
    for el in g.ball(4):
        exprs = g.reduced_expressions(el)
        assert el.shortlex_nf() == min(exprs)


def test_multiply_inverse():
    g = group_for(T334)
    rng = random.Random(5)
    for _ in range(25):
        word = tuple(rng.randrange(3) for _ in range(rng.randint(0, 8)))
        el = g.element_of(word)
        assert el * el.inverse() == g.identity
        assert el.inverse().length() == el.length()
    a = g.element_of((0, 1, 2))
    b = g.element_of((2, 1))
    assert (a * b).length() <= a.length() + b.length()


def test_support():
    g = group_for(T334)
    assert g.identity.support() == frozenset()
    w = g.element_of((1, 2, 0))
    assert w.support() == {0, 1, 2}
    gv = group_for(CASE_V)
    omega = gv.element_of(parse_word(CASE_V, "utvsut"))
    assert omega.support() == {0, 1, 2, 3}


def test_support_constant_across_reduced_expressions():
    g = group_for(ATILDE2)
    for el in g.ball(4):
        supports = {frozenset(e) for e in g.reduced_expressions(el)}
        assert supports == {el.support()}


def test_weak_leq_basics():
    g = group_for(A3)
    w = g.element_of((0, 1, 2))
    assert g.weak_leq(g.identity, w)
    assert not g.weak_leq(g.generator(0), g.generator(1))
    assert g.weak_leq(w, w)
    other = group_for(ATILDE2)
    with pytest.raises(GroupMismatchError):
        g.weak_leq(w, other.identity)


@pytest.mark.parametrize("d,radius", [(ATILDE2, 5), (T334, 4)])
def test_weak_order_is_partial_order(d, radius):
    g = group_for(d)
    ball = g.ball(radius).elements
    leq = {}
    for v, w in itertools.product(ball, repeat=2):
        leq[v, w] = g.weak_leq(v, w)
    for v in ball:
        assert leq[v, v]
    for v, w in itertools.product(ball, repeat=2):
        if leq[v, w] and leq[w, v]:
            assert v == w
    for v, w, x in itertools.product(ball, repeat=3):
        if leq[v, w] and leq[w, x]:
            assert leq[v, x]


@pytest.mark.parametrize("d", [A3, ATILDE2, T334])
def test_weak_leq_matches_prefix_characterization(d):
    """Independent oracle: v <= w iff some reduced expression of w starts
    with a reduced expression of v."""
    g = group_for(d)
    ball = g.ball(4).elements
    for w in ball:
        exprs = g.reduced_expressions(w)
        prefixes = {expr[:k] for expr in exprs for k in range(len(expr) + 1)}
        prefix_elements = {g.element_of(p) for p in prefixes}
        for v in ball:
            assert g.weak_leq(v, w) == (v in prefix_elements)


def test_same_length_elements_incomparable():
    g = group_for(ATILDE2)
    ball = g.ball(5)
    for k in range(len(ball.counts)):
        level = ball.of_length(k)
        for i, v in enumerate(level):
            for w in level[i + 1 :]:
                # raw length arithmetic, bypassing the equal-length shortcut
                assert v.length() + (v.inverse() * w).length() != w.length()


@pytest.mark.parametrize("d", [ATILDE2, I2INF, T334])
def test_reversed_quotient_is_the_inverse(d):
    """w^-1 v equals (v^-1 w)^-1, and the two have the same walked length:
    the identity behind the same-length check's second direction."""
    ball = group_for(d).ball(4)
    for k in range(len(ball.counts)):
        for v, w in itertools.combinations(ball.of_length(k), 2):
            direct = w.inverse() * v
            swapped = (v.inverse() * w).inverse()
            assert direct == swapped
            assert direct.length() == swapped.length()


def test_reduced_expressions_examples():
    g = group_for(CASE_V)
    assert g.reduced_expressions(g.identity) == [()]
    omega = g.element_of(parse_word(CASE_V, "utvsut"))
    exprs = {format_word(CASE_V, e) for e in g.reduced_expressions(omega)}
    assert exprs == {"u t v s u t", "u t v u s t", "u v t u s t", "u t s v u t", "u v t s u t"}
    nu = g.element_of(parse_word(CASE_V, "uvtut"))
    assert len(g.reduced_expressions(nu)) == 2
    assert g.count_reduced_expressions(nu) == 2
    assert g.count_reduced_expressions(omega) == 5


def test_reduced_expression_count_matches_enumeration():
    g = group_for(T334)
    for el in g.ball(4):
        assert g.count_reduced_expressions(el) == len(g.reduced_expressions(el))


def test_reduced_expressions_cap():
    g = group_for(A3)
    w0 = g.element_of((0, 1, 0, 2, 1, 0))
    with pytest.raises(CapExceededError):
        g.reduced_expressions(w0, cap=3)



def test_reduced_expressions_cap_stops_early():
    # w0 of A8 lies above all 362880 elements; a cap of 100 expressions must
    # stop the walk long before it has visited them
    g = group_for(parse_diagram("a b c d e f g h; a-b b-c c-d d-e e-f f-g g-h"))
    w0 = g.element_of(tuple(s for top in range(8) for s in range(top, -1, -1)))
    assert w0.length() == 36
    t0 = time.perf_counter()
    with pytest.raises(CapExceededError, match=r"interval \[e, w\] exceeded cap of 101 elements"):
        g.reduced_expressions(w0, cap=100)
    assert time.perf_counter() - t0 < 2


def test_braid_closure():
    g = group_for(T334)
    assert g.braid_closure((0,)) == {(0,)}
    a2 = group_for(parse_diagram("a b; a-b"))
    assert a2.braid_closure((0, 1)) == {(0, 1)}
    with pytest.raises(NonReducedWordError):
        g.braid_closure((0, 0))


def test_braid_closure_matches_reduced_expressions():
    for d in (A3, ATILDE2, T334):
        g = group_for(d)
        for el in g.ball(4):
            exprs = g.reduced_expressions(el)
            assert g.braid_closure(exprs[0]) == set(exprs)


def test_ball_counts():
    assert group_for(A3).ball(0).counts == [1]
    assert group_for(I2INF).ball(4).counts == [1, 2, 2, 2, 2]
    assert group_for(ATILDE2).ball(4).counts == [1, 3, 6, 9, 12]
    with pytest.raises(CapExceededError):
        group_for(ATILDE2).ball(5, cap=10)


def test_ball_lengths_consistent():
    ball = group_for(T334).ball(4)
    for k in range(5):
        for el in ball.of_length(k):
            assert el.length() == k
            assert len(el.shortlex_nf()) == k
    assert ball.of_length(5) == []
    with pytest.raises(ValueError):
        ball.of_length(-1)


def test_min_coset_reps():
    g = group_for(ATILDE2)
    reps = list(g.min_coset_reps([0, 1], [0, 1], 5))
    assert len(reps) == 1 and reps[0] == g.identity
    whole = list(g.min_coset_reps([0, 1], [], 4))
    assert len(whole) == len(group_for(parse_diagram("a b; a-b")).ball(4))

    u3 = parse_diagram("a b c; a-b:inf b-c:inf a-c:inf")
    gu = group_for(u3)
    reps = list(gu.min_coset_reps([0, 1], [1], 5))
    words = [el.shortlex_nf() for el in reps]
    assert words == [
        (),
        (0,),
        (1, 0),
        (0, 1, 0),
        (1, 0, 1, 0),
        (0, 1, 0, 1, 0),
    ]
    for el in reps:
        if el != gu.identity:
            assert el.right_descents() == {0}

    # a finite quotient, A3 mod A2, ends the walk whatever the radius
    reps = group_for(A3).min_coset_reps([0, 1, 2], [0, 1], 10**9)
    assert [el.shortlex_nf() for el in reps] == [(), (2,), (1, 2), (0, 1, 2)]


def test_min_coset_reps_refuses_bad_arguments():
    g = group_for(ATILDE2)
    with pytest.raises(ValueError, match="K must be a subset of J"):
        list(g.min_coset_reps([0, 1], [2], 3))
    for J in ([0, 3], [-1, 0]):
        with pytest.raises(ValueError, match="out-of-range"):
            list(g.min_coset_reps(J, [], 3))
    with pytest.raises(ValueError, match="radius"):
        list(g.min_coset_reps([0, 1], [0], -1))


def test_min_coset_reps_cap_counts_walk_elements():
    """With K empty the walk makes the whole ball of W_J, 31 elements of
    affine A2 up to length 4; a cap of 30 stops it at length 4."""
    g = group_for(ATILDE2)
    assert len(list(g.min_coset_reps([0, 1, 2], [], 4, cap=31))) == 31
    with pytest.raises(CapExceededError, match="coset walk exceeded cap of 30 elements") as exc:
        list(g.min_coset_reps([0, 1, 2], [], 4, cap=30))
    assert exc.value.info == {"cap": 30, "radius": 4}


def test_parse_and_format_words():
    assert parse_word(CASE_VI, "s t u") == (0, 1, 2)
    assert parse_word(CASE_VI, "stuvwstuv") == (0, 1, 2, 3, 4, 0, 1, 2, 3)
    assert parse_word(CASE_VI, "") == ()
    assert parse_word(CASE_VI, "e") == ()
    assert format_word(CASE_VI, (0, 1)) == "s t"
    assert format_word(CASE_VI, ()) == "e"
    with pytest.raises(Exception):
        parse_word(CASE_VI, "s q")


def test_inverse_at_the_end_of_a_long_chain_is_built_by_a_loop():
    """The inverse at the end of a 3 000-step right_mul_gen chain comes from
    the normal-form walk and a word product, both loops, not one stack frame
    per step; it equals element_of's."""
    g = group_for(I2INF)
    word = tuple(i % 2 for i in range(3000))
    el = g.identity
    for s in word:
        el = el.right_mul_gen(s)
    assert el.icols == g.element_of(word).icols
    assert el.length() == 3000


def _elements_referred_to(obj):
    """The GroupElements that obj refers to directly or through tuples."""
    found = []
    stack = list(gc.get_referents(obj))
    while stack:
        x = stack.pop()
        if isinstance(x, GroupElement):
            found.append(x)
        elif isinstance(x, tuple):
            stack.extend(gc.get_referents(x))
    return found


def test_right_steps_hold_no_other_element(monkeypatch):
    """right_mul_gen and ball elements refer to no other element, before and
    after their inverse is read; a second read builds nothing."""
    g = group_for(T334)
    stepped = g.element_of((0, 1, 2)).right_mul_gen(0)
    ball = g.ball(5)
    elements = [stepped, *ball.elements]
    for el in elements:
        assert _elements_referred_to(el) == []
    calls = {"_rmul_gen": 0, "_walk": 0}
    for name in calls:
        orig = getattr(g, name)

        def counted(*args, _orig=orig, _name=name):
            calls[_name] += 1
            return _orig(*args)

        monkeypatch.setattr(g, name, counted)
    # a ball element knows its ShortLex word, so its inverse needs no walk
    for el in ball.elements:
        el.icols
    assert calls["_walk"] == 0
    stepped.icols
    assert calls["_walk"] == 1
    for el in elements:
        assert _elements_referred_to(el) == []
    # a second read builds nothing
    calls.update(dict.fromkeys(calls, 0))
    for el in elements:
        el.icols
    assert calls == {"_rmul_gen": 0, "_walk": 0}


def test_count_reduced_expressions_is_capped(monkeypatch):
    # nine commuting generators: w = abcdefghi has 9! reduced expressions,
    # and [e, w] has 2^9 = 512 elements
    g = group_for(parse_diagram("a b c d e f g h i"))
    w = g.element_of(tuple(range(9)))
    assert g.count_reduced_expressions(w) == 362880
    monkeypatch.setattr(element_mod, "DEFAULT_WORDS_CAP", 100)
    with pytest.raises(CapExceededError, match=r"interval \[e, w\] exceeded cap of 101 elements"):
        g.count_reduced_expressions(w)


def test_interval_walk_raises_at_the_element_past_its_cap(monkeypatch):
    """The walk down [e, w] raises as soon as a new element would pass
    cap + 1, not at the end of that element's rank, and exactly when
    |[e, w]| > cap + 1."""
    # nine commuting generators: [e, abcdefghi] has 2^9 = 512 elements
    g = group_for(parse_diagram("a b c d e f g h i"))
    w = g.element_of(tuple(range(9)))
    monkeypatch.setattr(element_mod, "DEFAULT_WORDS_CAP", 511)
    assert g.count_reduced_expressions(w) == 362880
    monkeypatch.setattr(element_mod, "DEFAULT_WORDS_CAP", 510)
    with pytest.raises(CapExceededError, match=r"interval \[e, w\] exceeded cap of 511 elements"):
        g.count_reduced_expressions(w)
    # in A8 the ranks below w0 hold 8, 35 and 111 elements, so a walk that
    # checks its cap once per rank makes 154 of them before it raises
    g = group_for(parse_diagram("a b c d e f g h; a-b b-c c-d d-e e-f f-g g-h"))
    w0 = g.element_of(tuple(s for top in range(8) for s in range(top, -1, -1)))
    made = set()
    right_mul_gen = GroupElement.right_mul_gen

    def counted(el, s):
        x = right_mul_gen(el, s)
        made.add(x)
        return x

    monkeypatch.setattr(GroupElement, "right_mul_gen", counted)
    monkeypatch.setattr(element_mod, "DEFAULT_WORDS_CAP", 100)
    with pytest.raises(CapExceededError, match=r"interval \[e, w\] exceeded cap of 101 elements"):
        g.count_reduced_expressions(w0)
    # the 100 elements held below w0, and the one that passed the cap
    assert len(made) == 101


def test_normal_form_walk_is_capped(monkeypatch):
    # in the infinite dihedral group (ab)^3 has length 6
    g = group_for(I2INF)
    within = g.element_of((0, 1, 0, 1, 0))
    beyond = g.element_of((0, 1, 0, 1, 0, 1))
    stepped = within.right_mul_gen(1)
    monkeypatch.setattr(element_mod, "DEFAULT_NF_CAP", 5)
    assert within.shortlex_nf() == (0, 1, 0, 1, 0)
    with pytest.raises(CapExceededError, match="normal-form walk exceeded 5 steps"):
        beyond.shortlex_nf()
    with pytest.raises(CapExceededError, match="normal-form walk exceeded 5 steps"):
        GroupElement(g, beyond.cols, None).length()
    # a right step builds its inverse by walking its own columns
    with pytest.raises(CapExceededError, match="normal-form walk exceeded 5 steps"):
        stepped.icols
