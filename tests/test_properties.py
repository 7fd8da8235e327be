"""Property tests over generated diagrams and words: the tracked length, the
weak order, products, the good-pair split condition, braid closures, the
automaton and the Gram definiteness are checked against independent
computations of the same quantities, and the text and JSON forms read back
equal."""

import functools
import itertools
import json
import math
from datetime import timedelta
from importlib import resources

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coxwalk import algebra, antichain, automaton
from coxwalk.algebra import CapExceededError, Definiteness
from coxwalk.diagram import INF, CoxeterDiagram, parse_diagram
from coxwalk.element import GroupElement, group_for
from coxwalk.verification import FIGURE1
from product_reference import column_product, coset_reps_by_ball, product_length, walked_length

LABELS = (2, 3, 4, 5, 6, INF)
MAX_WORD = 10

SETTINGS = settings(
    derandomize=True,
    database=None,
    deadline=timedelta(seconds=5),
    max_examples=120,
)

_AUTOMATA = {}


def automaton_for(d):
    auto = _AUTOMATA.get(d)
    if auto is None:
        auto = _AUTOMATA[d] = automaton.build(d)
    return auto


@st.composite
def diagrams(draw, min_rank=2, max_rank=4):
    """Rank min_rank to max_rank, every pair labelled from LABELS (so
    possibly reducible)."""
    n = draw(st.integers(min_rank, max_rank))
    labels = [[1] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        labels[i][j] = labels[j][i] = draw(st.sampled_from(LABELS))
    return CoxeterDiagram("abcde"[:n], labels)


def words(d):
    return st.lists(st.integers(0, d.rank - 1), max_size=MAX_WORD).map(tuple)


@st.composite
def diagram_and_word(draw):
    d = draw(diagrams())
    return d, draw(words(d))


@st.composite
def diagram_and_pair(draw):
    """Two words; about half the time the second extends the first, so that
    comparable pairs are drawn as often as incomparable ones."""
    d = draw(diagrams())
    first, second = draw(words(d)), draw(words(d))
    if draw(st.booleans()):
        second = first + second
    return d, first, second


@SETTINGS
@given(diagram_and_word())
def test_tracked_length_matches_normal_form(case):
    d, word = case
    g = group_for(d)
    el = g.element_of(word)
    fresh = GroupElement(g, el.cols, el.icols)
    assert el.length() == len(fresh.shortlex_nf())
    right = g.identity
    for s in word:
        right = right.right_mul_gen(s)
    assert right == el
    assert right.length() == el.length()
    # right_mul_gen builds the inverse on first read, element_of eagerly
    assert right.icols == el.icols


@SETTINGS
@given(diagram_and_pair())
def test_bounded_weak_leq_matches_length_formula(case):
    d, first, second = case
    g = group_for(d)
    v, w = g.element_of(first), g.element_of(second)
    expected = v.length() + product_length(v.inverse(), w) == w.length()
    assert g.weak_leq(v, w) == expected


@SETTINGS
@given(diagram_and_pair())
def test_product_matches_column_product(case):
    """u * v by right steps against the dense matrix product, and its
    tracked length against a fresh walk; the inverse is built on first
    read and equals the product of the inverses."""
    d, first, second = case
    g = group_for(d)
    u, v = g.element_of(first), g.element_of(second)
    uv = u * v
    cols = column_product(g, u.cols, v.cols)
    assert uv.cols == cols
    assert uv.length() == walked_length(g, cols)
    assert uv.icols == column_product(g, v.icols, u.icols)


@SETTINGS
@given(diagram_and_pair())
def test_weak_leq_matches_reduced_prefixes(case):
    """v <= w iff some reduced expression of w begins with one of v."""
    d, first, second = case
    g = group_for(d)
    v, w = g.element_of(first), g.element_of(second)
    lv = v.length()
    expected = any(g.element_of(expr[:lv]) == v for expr in g.reduced_expressions(w))
    assert g.weak_leq(v, w) == expected


def split_by_expressions(g, w, tail):
    """The good-pair split condition read off the reduced expressions of
    x = w*tail: the lengths add and every one of them starts with a word
    for w."""
    x, lw = w * tail, w.length()
    if x.length() != lw + tail.length():
        return False
    return all(g.element_of(e[:lw]) == w for e in g.reduced_expressions(x))


@pytest.mark.parametrize("name", [n for n in FIGURE1 if n != "case_vi"])
def test_split_condition_matches_expressions_on_dispatched_pairs(vctx, name):
    """The interval rank against the expression-based answer on (u, w) and
    (w, w), for the dispatched pair of each Figure 1 diagram but case vi."""
    d = vctx.fixture(name)
    pair = antichain.compact_hyperbolic_pair(d)
    g = group_for(d)
    u, w = g.element_of(pair.u_word), g.element_of(pair.w_word)
    for tail in (u, w):
        assert antichain._split_condition(g, w, tail)[0] == split_by_expressions(g, w, tail)


@SETTINGS
@given(diagram_and_pair())
def test_split_condition_matches_expressions(case):
    """The same comparison on generated pairs; an example whose reference
    passes the expression cap is dropped."""
    d, first, second = case
    g = group_for(d)
    u, w = g.element_of(first), g.element_of(second)
    for tail in (u, w):
        try:
            expected = split_by_expressions(g, w, tail)
        except CapExceededError:
            assume(False)
        assert antichain._split_condition(g, w, tail)[0] == expected


@SETTINGS
@given(diagram_and_word())
def test_inversion_set_decides_reducedness(case):
    """N(w) exists exactly for reduced words, has one root per letter, and
    does not depend on the reduced expression."""
    d, word = case
    g = group_for(d)
    el = g.element_of(word)
    reduced = el.length() == len(word)
    inversions = g.inversion_set(word)
    assert (inversions is not None) == reduced == g.is_reduced(word)
    if reduced:
        assert len(inversions) == len(word)
        assert inversions == g.inversion_set(el.shortlex_nf())


@SETTINGS
@given(diagram_and_pair())
def test_weak_leq_matches_inversion_set_inclusion(case):
    d, first, second = case
    g = group_for(d)
    v, w = g.element_of(first), g.element_of(second)
    nv, nw = g.inversion_set(v.shortlex_nf()), g.inversion_set(w.shortlex_nf())
    assert g.weak_leq(v, w) == (nv <= nw)
    assert g.weak_leq(w, v) == (nw <= nv)


@SETTINGS
@given(diagram_and_word())
def test_braid_closure_is_every_reduced_expression(case):
    """Matsumoto-Tits: braid moves connect all reduced expressions."""
    d, word = case
    g = group_for(d)
    el = g.element_of(word)
    closure = g.braid_closure(el.shortlex_nf())
    assert len(closure) == g.count_reduced_expressions(el)
    assert closure == set(g.reduced_expressions(el))


def _det(rows, field):
    """Determinant by permutation expansion, with `field.mul` and
    coefficientwise sums only."""
    n = len(rows)
    total = field.zero
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(n), 2))
        term = functools.reduce(field.mul, (rows[i][perm[i]] for i in range(n)))
        sign = (-1) ** inversions
        total = tuple(x + sign * y for x, y in zip(total, term))
    return total


def _definiteness_from_minors(rows, field):
    """Sylvester: positive definite iff every leading principal minor is
    positive; positive semidefinite iff every principal minor is >= 0."""
    n = len(rows)

    def minor_sign(idx):
        return field.sign(_det([[rows[i][j] for j in idx] for i in idx], field))

    if all(minor_sign(range(k)) > 0 for k in range(1, n + 1)):
        return Definiteness.POS_DEF
    if all(
        minor_sign(idx) >= 0
        for k in range(1, n + 1)
        for idx in itertools.combinations(range(n), k)
    ):
        return Definiteness.POS_SEMIDEF_SINGULAR
    return Definiteness.OTHER


def _check_definiteness(d):
    field = algebra.field_for(d)
    rows = algebra.gram(d, field)
    assert algebra.definiteness(rows, field) == _definiteness_from_minors(rows, field)


@SETTINGS
@given(diagrams(max_rank=5))
def test_definiteness_matches_principal_minors(d):
    _check_definiteness(d)


# uniform sampling rarely draws a positive semidefinite singular form, so
# every fixture (finite, affine and hyperbolic) is checked explicitly too
FIXTURE_DIR = resources.files("coxwalk").joinpath("fixtures")
FIXTURES = sorted(p.name for p in FIXTURE_DIR.iterdir() if p.name.endswith(".cox"))


@pytest.mark.parametrize("name", FIXTURES)
def test_definiteness_matches_principal_minors_on_fixtures(name):
    _check_definiteness(parse_diagram(FIXTURE_DIR.joinpath(name).read_text()))


def _lcm_of_all_labels_field(d):
    """Q(2cos(pi/L)) with L the lcm of 2 and every finite label: it holds
    every form value too, in a larger degree than field_for's."""
    finite = (int(m) for row in d.labels for m in row if m != INF)
    return algebra.field_for_lcm(math.lcm(2, *finite))


def _check_form_value_numerically(d, field):
    """The doubled form value is -2cos(pi/m), and -2 for m = oo."""
    with mpmath.workdps(60):
        c = 2 * mpmath.cos(mpmath.pi / field.L)
        for i, j in itertools.combinations(range(d.rank), 2):
            m = d.label(i, j)
            expected = -2 if m == INF else -2 * mpmath.cos(mpmath.pi / m)
            value = algebra.form_value(d, i, j, field)
            got = sum(mpmath.mpf(n) * c**k for k, n in enumerate(value))
            assert abs(got - expected) < mpmath.mpf(10) ** -40, (m, field)


def _check_minimal_field(d):
    minimal, wide = algebra.field_for(d), _lcm_of_all_labels_field(d)
    assert minimal.degree <= wide.degree
    assert algebra.definiteness(algebra.gram(d, minimal), minimal) == algebra.definiteness(
        algebra.gram(d, wide), wide
    )
    _check_form_value_numerically(d, minimal)
    _check_form_value_numerically(d, wide)


@SETTINGS
@given(diagrams(max_rank=5))
def test_minimal_field_agrees_with_lcm_of_all_labels(d):
    _check_minimal_field(d)


@pytest.mark.parametrize("name", FIXTURES)
def test_minimal_field_agrees_with_lcm_of_all_labels_on_fixtures(name):
    _check_minimal_field(parse_diagram(FIXTURE_DIR.joinpath(name).read_text()))


@SETTINGS
@given(diagram_and_word())
def test_automaton_accepts_exactly_reduced_words(case):
    d, word = case
    reduced = group_for(d).element_of(word).length() == len(word)
    assert automaton_for(d).accepts(word) == reduced
    assert group_for(d).is_reduced(word) == reduced


# The reference BFS below stops where build's cap would: a larger automaton
# is compared on the frontier its cap leaves, which depends on the order.
STATE_CAP = 5000


def _reference_bfs(d):
    """The state BFS with each state a frozenset of root ids, read straight
    from the step table: the states and transitions in discovery order, or
    the cap info where a new state would pass STATE_CAP."""
    _, simple_ids, step = automaton._root_table(d, algebra.field_for(d))
    states = [frozenset()]
    index = {states[0]: 0}
    transitions = []
    for sid, state in enumerate(states):
        trans = {}
        for s, simple in enumerate(simple_ids):
            if simple in state:
                continue
            img = frozenset({simple, *(step[s][r] for r in state if step[s][r] >= 0)})
            if img not in index:
                if len(states) >= STATE_CAP:
                    return {"cap": STATE_CAP, "frontier": len(states) - sid - 1}
                index[img] = len(states)
                states.append(img)
            trans[s] = index[img]
        transitions.append(trans)
    return states, transitions


def _dense_counts(transitions, k):
    """Words of each length 0..k from state 0, over every state at every step."""
    cur = [1] + [0] * (len(transitions) - 1)
    counts = [1]
    for _ in range(k):
        nxt = [0] * len(transitions)
        for ways, trans in zip(cur, transitions):
            for to in trans.values():
                nxt[to] += ways
        cur = nxt
        counts.append(sum(cur))
    return counts


def _check_build_matches_reference(d):
    expected = _reference_bfs(d)
    try:
        auto = automaton.build(d, cap=STATE_CAP)
    except automaton.StateCapExceededError as err:
        assert err.info == expected
        return
    roots = range(len(auto.root_vectors))
    transitions = [
        {s: to for s in range(d.rank) if (to := auto.next_state(sid, s)) is not None}
        for sid in range(auto.num_states)
    ]
    got = [frozenset(r for r in roots if state >> r & 1) for state in auto.states], transitions
    assert got == expected
    assert auto.reduced_word_counts(12) == _dense_counts(expected[1], 12)


@SETTINGS
@given(diagrams(min_rank=1, max_rank=5))
def test_build_matches_reference_bfs(d):
    _check_build_matches_reference(d)


@pytest.mark.parametrize("name", FIXTURES)
def test_build_matches_reference_bfs_on_fixtures(name):
    _check_build_matches_reference(parse_diagram(FIXTURE_DIR.joinpath(name).read_text()))


def test_build_matches_reference_bfs_rank0():
    _check_build_matches_reference(CoxeterDiagram((), ()))


@pytest.mark.parametrize("name", ["case_v.cox", "case_vi.cox", "fig1_path5_5335.cox"])
def test_build_matches_reference_bfs_past_the_chunk_cache_cap(name, monkeypatch):
    """With each chunk cache of the build capped at one entry, the images of
    nearly every state come from the byte tables and are not stored.
    case_v has exactly 32 roots, one full chunk."""
    monkeypatch.setattr(automaton, "_CHUNK_CACHE_CAP", 1)
    _check_build_matches_reference(parse_diagram(FIXTURE_DIR.joinpath(name).read_text()))


def _check_steps_pack_disjointly(d):
    """Phase 2 adds the images of a state's chunks and const instead of
    OR-ing them, which is exact only when each step[s] maps distinct roots
    to distinct roots and never to alpha_s."""
    _, simple_ids, step = automaton._root_table(d, algebra.field_for(d))
    for s, row in enumerate(step):
        images = [rid for rid in row if rid >= 0]
        assert len(set(images)) == len(images)
        assert simple_ids[s] not in images


@SETTINGS
@given(diagrams(min_rank=1, max_rank=5))
def test_steps_pack_disjointly(d):
    _check_steps_pack_disjointly(d)


@pytest.mark.parametrize("name", FIXTURES)
def test_steps_pack_disjointly_on_fixtures(name):
    _check_steps_pack_disjointly(parse_diagram(FIXTURE_DIR.joinpath(name).read_text()))


@SETTINGS
@given(diagrams(), st.integers(0, 3))
def test_ball_inverses_match_element_of(d, radius):
    """Ball elements build their inverses on first read, and the ShortLex
    word a ball records is the one the normal-form walk finds."""
    g = group_for(d)
    for el in g.ball(radius).elements:
        assert el.icols == g.element_of(el.shortlex_nf()).icols
        assert GroupElement(g, el.cols, None).shortlex_nf() == el.shortlex_nf()


@pytest.mark.parametrize("name", FIXTURES)
def test_ball_shortlex_words_match_the_walk(name):
    d = parse_diagram(FIXTURE_DIR.joinpath(name).read_text())
    g = group_for(d)
    for el in g.ball(6 if d.rank <= 3 else 4).elements:
        assert GroupElement(g, el.cols, None).shortlex_nf() == el.shortlex_nf()


@st.composite
def diagram_and_parabolics(draw):
    """A diagram of rank <= 5, generator subsets J containing K, and a
    radius <= 5."""
    d = draw(diagrams(max_rank=5))
    J = sorted(draw(st.sets(st.integers(0, d.rank - 1))))
    K = [j for j in J if draw(st.booleans())]
    return d, J, K, draw(st.integers(0, 5))


# a third of the usual examples: each builds a subgroup ball of up to 1 706
# elements
@settings(SETTINGS, max_examples=40)
@given(diagram_and_parabolics())
def test_coset_walk_matches_ball_filter(case):
    """The right-step walk of min_coset_reps yields, element for element
    and in (length, ShortLex) order, what filtering the subgroup's own
    ball by right descents gives, with both matrices and the length."""
    d, J, K, radius = case
    g = group_for(d)
    reps = list(g.min_coset_reps(J, K, radius))
    words = coset_reps_by_ball(g, J, K, radius)
    assert [el.shortlex_nf() for el in reps] == words
    assert [el.length() for el in reps] == [len(word) for word in words]
    ref = [g.element_of(word) for word in words]
    assert reps == ref
    assert [el.icols for el in reps] == [el.icols for el in ref]


@SETTINGS
@given(diagram_and_word())
def test_state_simple_roots_are_right_descents(case):
    d, word = case
    auto = automaton_for(d)
    el = group_for(d).element_of(word)
    sid = auto.run(word)
    if sid is None:
        # a word that is not reduced is replaced by a reduced word for el
        sid = auto.run(el.shortlex_nf())
    simple = {s for s in range(d.rank) if auto.state_contains_simple(sid, s)}
    assert simple == el.right_descents()


def _check_states_are_elementary_inversions(g, auto, radius):
    """For each w in the ball, the state reached by w's ShortLex word holds
    exactly the elementary roots (those of `auto.root_vectors`) in
    N(w^-1), the positive roots that w sends negative.  This identity is
    checked here, on these balls and generated diagrams, not proved."""
    elementary = set(auto.root_vectors)
    for el in g.ball(radius).elements:
        word = el.shortlex_nf()
        bits = auto.states[auto.run(word)]
        state = {r for i, r in enumerate(auto.root_vectors) if bits >> i & 1}
        inversions = set(g.inversion_set(word[::-1]))
        assert state == inversions & elementary, el


@pytest.mark.parametrize(
    "name, radius",
    [("triangle_237", 10), ("affine_a2", 8), ("case_v", 7), ("case_vi", 7),
     ("fig1_path4_435", 7), ("universal_rank3", 7), ("a3", 6)],
)
def test_states_are_elementary_inversions_on_fixtures(vctx, name, radius):
    d = vctx.fixture(name)
    _check_states_are_elementary_inversions(group_for(d), vctx.automaton_for(name), radius)


@SETTINGS
@given(diagrams())
def test_states_are_elementary_inversions(d):
    _check_states_are_elementary_inversions(group_for(d), automaton_for(d), 3)


@SETTINGS
@given(diagrams())
def test_json_round_trip(d):
    auto = automaton_for(d)
    again = automaton.ReducedWordAutomaton.from_json(auto.to_json())
    assert again.diagram == d
    assert again == auto


@SETTINGS
@given(diagrams(), st.booleans(), st.data())
def test_json_one_change_is_refused(d, retarget, data):
    """An export with one edge retargeted, or one root id dropped from a
    state, is not the build of its diagram."""
    payload = json.loads(automaton_for(d).to_json())
    states = payload["states"]
    if retarget:
        row = data.draw(st.sampled_from(payload["transitions"]).filter(bool))
        name = data.draw(st.sampled_from(sorted(row)))
        to = data.draw(st.integers(0, len(states) - 2))
        row[name] = to + (to >= row[name])
    else:
        ids = data.draw(st.sampled_from(states).filter(bool))
        del ids[data.draw(st.integers(0, len(ids) - 1))]
    with pytest.raises(ValueError):
        automaton.ReducedWordAutomaton.from_json(json.dumps(payload))


@SETTINGS
@given(diagrams())
def test_diagram_text_round_trip(d):
    assert parse_diagram(d.to_text()) == d
