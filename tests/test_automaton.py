"""Reduced-word automaton: construction, runs, counting, export."""

import gc
import hashlib
import itertools
import json
import random
import re
import time
import tracemalloc
from array import array

import pytest

from coxwalk import automaton
from coxwalk.diagram import CoxeterDiagram, parse_diagram
from coxwalk.element import group_for


I2INF = parse_diagram("a b; a-b:inf")
A2 = parse_diagram("a b; a-b")
ATILDE2 = parse_diagram("a b c; a-b b-c a-c")
T334 = parse_diagram("a b c; a-b b-c a-c:4")
UNIVERSAL3 = parse_diagram("a b c; a-b:inf b-c:inf a-c:inf")


def test_infinite_dihedral_states():
    auto = automaton.build(I2INF)
    assert auto.num_states == 3
    assert auto.num_edges == 4


def test_universal_rank3_states():
    auto = automaton.build(UNIVERSAL3)
    assert auto.num_states == 4
    assert auto.num_edges == 9


def test_a2_states_regression():
    # derived once from a build cross-checked against the reducedness
    # oracle, then frozen
    auto = automaton.build(A2)
    assert auto.num_states == 6


def test_case_v_states_regression(vctx):
    auto = vctx.automaton_for("case_v")
    assert auto.num_states == 687


def test_run_basics():
    auto = automaton.build(A2)
    assert auto.run(()) == auto.start
    assert auto.run((0, 0)) is None
    assert auto.run((0, 1, 0)) is not None
    assert auto.run((0, 1, 0, 1)) is None


def test_state_is_function_of_element():
    for d in (ATILDE2, T334):
        auto = automaton.build(d)
        g = group_for(d)
        for el in g.ball(5):
            states = {auto.run(e) for e in g.reduced_expressions(el)}
            assert len(states) == 1
            assert None not in states


def test_state_simple_roots_match_descents():
    for d in (ATILDE2, T334):
        auto = automaton.build(d)
        g = group_for(d)
        for el in g.ball(5):
            sid = auto.run(el.shortlex_nf())
            contains = {s for s in range(d.rank) if auto.state_contains_simple(sid, s)}
            assert contains == el.right_descents()


def test_state_contains_simple_index_range():
    auto = automaton.build(ATILDE2)
    for s in (-1, ATILDE2.rank):
        with pytest.raises(IndexError, match=f"generator index {s} out of range"):
            auto.state_contains_simple(auto.start, s)


def test_state_ids_out_of_range():
    """A state id outside 0..num_states-1 raises: -1 must not read the last
    state or row.  A bad letter keeps its own answer."""
    auto = automaton.build(parse_diagram("a b; a-b:4"))
    for sid in (-1, auto.num_states):
        with pytest.raises(IndexError, match=f"state {sid} out of range"):
            auto.next_state(sid, 0)
        with pytest.raises(IndexError, match=f"state {sid} out of range"):
            auto.state_contains_simple(sid, 0)
    last = auto.num_states - 1
    assert auto.next_state(last, 2) is None
    with pytest.raises(IndexError, match="generator index 2 out of range"):
        auto.state_contains_simple(last, 2)


def test_count_reduced_words():
    auto = automaton.build(I2INF)
    assert auto.count_reduced_words(0) == 1
    for k in range(1, 11):
        assert auto.count_reduced_words(k) == 2
    a2auto = automaton.build(A2)
    assert [a2auto.count_reduced_words(k) for k in range(5)] == [1, 2, 2, 2, 0]
    assert a2auto.reduced_word_counts(4) == [1, 2, 2, 2, 0]


@pytest.mark.parametrize("d", [ATILDE2, T334, UNIVERSAL3])
def test_reduced_word_counts_one_pass(d):
    auto = automaton.build(d)
    counts = auto.reduced_word_counts(8)
    assert counts == [auto.count_reduced_words(k) for k in range(9)]
    assert auto.reduced_word_counts(0) == [1]
    with pytest.raises(ValueError):
        auto.reduced_word_counts(-1)


def dense_counts(auto, k):
    """The transfer matrix over every state at every step: the reference
    for reduced_word_counts, which walks only the states a word can reach."""
    table, n = auto.table, auto.rank
    cur = [0] * auto.num_states
    cur[auto.start] = 1
    counts = [1]
    for _ in range(k):
        nxt = [0] * auto.num_states
        for sid, ways in enumerate(cur):
            if ways:
                for to in table[sid * n : sid * n + n]:
                    if to >= 0:
                        nxt[to] += ways
        cur = nxt
        counts.append(sum(cur))
    return counts


# K = 40 is past the BFS depth of each; a2's counts reach 0 at length 4
@pytest.mark.parametrize("name", ["i2inf", "a2", "triangle_334", "case_v", "fig1_cycle5_43333"])
def test_counts_match_dense_reference(vctx, name):
    auto = vctx.automaton_for(name)
    assert auto.reduced_word_counts(40) == dense_counts(auto, 40)


def _shuffled_ids(count, start, seed):
    """A shuffle of the state ids 0..count-1 that moves start off 0, and its
    inverse: new_id[sid] is the new id of state sid, old_id[new] the old."""
    new_id = list(range(count))
    random.Random(seed).shuffle(new_id)
    if new_id[start] == 0:
        new_id.reverse()
    return new_id, sorted(range(count), key=new_id.__getitem__)


def _permuted(auto, seed):
    """auto with its state ids shuffled, start moved off 0."""
    new_id, old_id = _shuffled_ids(auto.num_states, auto.start, seed)
    n = auto.rank
    rows = [auto.table[sid * n : sid * n + n] for sid in old_id]
    table = array("i", [new_id[to] if to >= 0 else -1 for row in rows for to in row])
    states = [auto.states[sid] for sid in old_id]
    shuffled = automaton.ReducedWordAutomaton(
        auto.diagram, auto.field, auto.root_vectors, states, table, auto.simple_root_ids
    )
    shuffled.start = new_id[auto.start]
    return shuffled


def test_counts_on_permuted_state_ids(vctx):
    """The reached prefix is bounded from the targets read, so it holds for
    states in any order, not only build's breadth-first one."""
    auto = vctx.automaton_for("case_v")
    shuffled = _permuted(auto, seed=3)
    assert shuffled.start != 0
    assert shuffled.states != auto.states
    expected = auto.reduced_word_counts(40)
    assert shuffled.reduced_word_counts(40) == dense_counts(shuffled, 40) == expected


@pytest.mark.parametrize("d", [ATILDE2, T334])
def test_count_matches_ball_enumeration(d):
    auto = automaton.build(d)
    g = group_for(d)
    ball = g.ball(6)
    for k in range(7):
        total = sum(g.count_reduced_expressions(el) for el in ball.of_length(k))
        assert auto.count_reduced_words(k) == total


@pytest.mark.parametrize("d", [A2, I2INF, parse_diagram("a b c; a-b:4 b-c:4")])
def test_accepts_iff_reduced_small(d):
    auto = automaton.build(d)
    g = group_for(d)
    for k in range(6):
        for word in itertools.product(range(d.rank), repeat=k):
            el = g.element_of(word)
            assert auto.accepts(word) == (el.length() == len(word))


def test_oracle_long_words_rank5(vctx, case_vi_automaton):
    """Acceptance agrees with lengths far beyond the acceptance-suite depth:
    random rank-5 words up to length 40, checked at every prefix."""
    import random

    from coxwalk.element import group_for

    d = vctx.fixture("case_vi")
    g = group_for(d)
    auto = case_vi_automaton
    rng = random.Random(7)
    for _ in range(120):
        word = tuple(rng.randrange(5) for _ in range(rng.randint(1, 40)))
        el = g.identity
        state = auto.start
        for i, s in enumerate(word):
            el = el.right_mul_gen(s)
            state = auto.next_state(state, s) if state is not None else None
            assert (state is not None) == (el.length() == i + 1)


@pytest.mark.parametrize("name", ["a2", "case_v"])
def test_letters_outside_generators_reject(vctx, name):
    """A letter outside 0..n-1 has no edge, alone or after a valid letter:
    it must not read into a neighbouring row of the transition table."""
    auto = vctx.automaton_for(name)
    n = auto.diagram.rank
    after = auto.next_state(auto.start, 0)
    assert after is not None
    for bad in (n, -1):
        assert auto.next_state(auto.start, bad) is None
        assert auto.next_state(after, bad) is None
        for word in [(bad,), (0, bad)]:
            assert auto.run(word) is None
            assert auto.accepts(word) is False


def test_memory_per_state(vctx):
    """The built automaton holds no container per state: its transitions
    are one flat table of 4 bytes per (state, generator)."""
    d = vctx.fixture("fig1_cycle5_43333")
    gc.collect()
    tracemalloc.start()
    try:
        auto = automaton.build(d)
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert auto.num_states == 3743
    assert retained / auto.num_states < 128


def test_case_vi_counts_match_ball(vctx, case_vi_automaton):
    from coxwalk.element import group_for

    g = group_for(vctx.fixture("case_vi"))
    ball = g.ball(4)
    for k in range(5):
        total = sum(g.count_reduced_expressions(el) for el in ball.of_length(k))
        assert case_vi_automaton.count_reduced_words(k) == total


def test_state_cap():
    with pytest.raises(automaton.StateCapExceededError) as err:
        automaton.build(A2, cap=2)
    assert "frontier" in str(err.value)


@pytest.mark.parametrize(
    "name, cap, frontier",
    [("case_vi", 1000, 337), ("case_vi", 20000, 2620), ("fig1_path5_5335", 1000, 374)],
)
def test_state_cap_frontier_pinned(vctx, name, cap, frontier):
    """The frontier at the cap depends on the BFS order of states and of
    generators within a state, so it pins that order."""
    with pytest.raises(automaton.StateCapExceededError) as err:
        automaton.build(vctx.fixture(name), cap=cap)
    assert err.value.info == {"cap": cap, "frontier": frontier}


def test_deterministic_build():
    a1 = automaton.build(T334)
    a2 = automaton.build(T334)
    assert a1.canonical_form() == a2.canonical_form()
    assert a1.to_dot() == a2.to_dot()
    assert a1.to_json() == a2.to_json()


def test_dot_export():
    auto = automaton.build(I2INF)
    dot = auto.to_dot()
    assert dot.count("label=") == 3 + 4 + 0  # 3 state labels + 4 edge labels
    assert '__start -> "0"' in dot


def test_dot_export_escapes_generator_names():
    """A generator name may hold a quote or a backslash; every label of the
    export is still one DOT quoted string."""
    auto = automaton.build(parse_diagram(r's"x a\b; s"x-a\b:4'))
    dot = auto.to_dot()
    labels = [line.split(" [label=", 1)[1] for line in dot.splitlines() if " [label=" in line]
    assert len(labels) == auto.num_states + auto.num_edges == 8 + 8
    assert all(re.fullmatch(r'"(?:[^"\\]|\\.)*"\];', label) for label in labels)
    assert r'"0" -> "1" [label="s\"x"];' in dot
    assert r'"0" -> "2" [label="a\\b"];' in dot


def test_dot_export_rank0():
    d = CoxeterDiagram((), ())
    auto = automaton.build(d)
    assert auto.num_states == 1
    assert auto.num_edges == 0
    assert auto.run(()) == 0
    assert '"0"' in auto.to_dot()


@pytest.mark.parametrize("d", [I2INF, A2, T334, UNIVERSAL3])
def test_json_roundtrip(d):
    auto = automaton.build(d)
    again = automaton.ReducedWordAutomaton.from_json(auto.to_json())
    assert again.diagram == d
    assert again == auto


def test_json_roundtrip_rank0():
    d = CoxeterDiagram((), ())
    auto = automaton.build(d)
    # the table is empty, but the one state still has its row
    assert auto.to_json().endswith('"states":[[]],"transitions":[{}]}')
    again = automaton.ReducedWordAutomaton.from_json(auto.to_json())
    assert again.diagram == d
    assert again == auto


def test_json_without_diagram_key():
    auto = automaton.build(T334)
    payload = json.loads(auto.to_json())
    del payload["diagram"]
    text = json.dumps(payload)
    # every export of schema version 2 carries its diagram
    for diagram in (None, T334):
        with pytest.raises(ValueError):
            automaton.ReducedWordAutomaton.from_json(text, diagram=diagram)


def test_eq_reads_transitions():
    """Two automata with the same states and edges but one other edge target
    compare unequal."""
    auto = automaton.build(A2)
    table = array("i", auto.table)
    assert table[:2].tolist() == [1, 2]
    table[0] = 2
    other = automaton.ReducedWordAutomaton(
        auto.diagram, auto.field, auto.root_vectors, list(auto.states), table, auto.simple_root_ids
    )
    assert other.states == auto.states
    assert other.num_edges == auto.num_edges
    assert other.next_state(0, 0) == 2
    assert other != auto


def test_json_reads_any_whitespace():
    auto = automaton.build(T334)
    text = json.dumps(json.loads(auto.to_json()), indent=1)
    again = automaton.ReducedWordAutomaton.from_json(text)
    assert again == auto


def test_json_roundtrip_case_v(vctx):
    auto = vctx.automaton_for("case_v")
    again = automaton.ReducedWordAutomaton.from_json(
        auto.to_json(), diagram=auto.diagram
    )
    assert again == auto


def test_json_roundtrip_case_vi(case_vi_automaton):
    """The rank-5 automaton (101412 states) exports and reads back equal."""
    auto = case_vi_automaton
    t0 = time.perf_counter()
    again = automaton.ReducedWordAutomaton.from_json(auto.to_json())
    assert again == auto
    assert time.perf_counter() - t0 < 60


def test_json_schema_v2():
    auto = automaton.build(A2)
    payload = json.loads(auto.to_json())
    assert payload["version"] == 2
    # the root table once, states as ascending root ids, per-state transitions
    assert len(payload["roots"]) == len(auto.root_vectors) == 3
    assert payload["states"][0] == []
    assert all(ids == sorted(set(ids)) for ids in payload["states"])
    assert payload["transitions"][0] == {"a": 1, "b": 2}


def test_json_export_unusual_names():
    """Rows are filled in by one % from templates keyed by json.dumps of
    each name, so a % in a name must be doubled there; quotes, backslashes,
    braces and non-ASCII letters must come out as json.dumps writes them."""
    names = ("a%d", 'b"%s', "c\\{", "é%")
    labels = [[1, 3, 2, 2], [3, 1, 4, 2], [2, 4, 1, 3], [2, 2, 3, 1]]
    d = CoxeterDiagram(names, labels)
    auto = automaton.build(d)
    roots = range(len(auto.root_vectors))
    payload = {
        "format": "coxwalk-automaton",
        "version": 2,
        "generators": list(names),
        "diagram": d.to_text(),
        "field": {"L": auto.field.L, "minpoly": list(auto.field.minpoly)},
        "start": auto.start,
        "roots": [[[str(x) for x in e] for e in vec] for vec in auto.root_vectors],
        "states": [[r for r in roots if state >> r & 1] for state in auto.states],
        "transitions": [
            {
                name: to
                for s, name in enumerate(names)
                if (to := auto.next_state(sid, s)) is not None
            }
            for sid in range(auto.num_states)
        ],
    }
    text = auto.to_json()
    assert text == json.dumps(payload, separators=(",", ":"))
    again = automaton.ReducedWordAutomaton.from_json(text)
    assert again.diagram == d
    assert again == auto


# Size and SHA-256 of the schema-v2 export of five fixtures.  Root
# coordinates are written as decimal integers in the canonical root order, so
# a change to the field layer's representation or to that order shows here.
# The rank-5 automata have 114 and 135 roots: their states span 15 and 17
# bytes, and each generator's image slot in the build is wider than 64 bits.
EXPORT_DIGESTS = {
    "triangle_334": (784, "59c071472185b86b2086448bff28d37f302098be49cf1d698ad545efaea7bb39"),
    "fig1_path4_435": (21015, "c5a29c15caa238173e86e110403f3bd00f2da82b4ff3a4e733aad2b96056ee0b"),
    "case_v": (31088, "99cf793179503413dea25693b723dc0354973fd4877bdd36a583445b9720e2cc"),
    "case_vi": (10199887, "44b21fbbfe3b4df24fe2f3a133e36b18fb947bd5850ee0cb5a9fc53bbfb41fee"),
    "fig1_path5_5335": (4619048, "6dc874a57299aadb4a11b116fee2f6964a40cf807381809eb020bdc1d4101f55"),
}


@pytest.mark.parametrize("name", sorted(EXPORT_DIGESTS))
def test_json_export_bytes_pinned(vctx, name):
    # the context builds each automaton once per session (case_vi is shared)
    text = vctx.automaton_for(name).to_json()
    assert (len(text), hashlib.sha256(text.encode()).hexdigest()) == EXPORT_DIGESTS[name]


# from_json rebuilds the export's diagram and compares its export with the
# compact re-dump of the one read
NOT_BUILD = "export differs from the build of its diagram"


def _shuffle_state_ids(payload):
    new_id, old_id = _shuffled_ids(len(payload["states"]), payload["start"], seed=3)
    rows = payload["transitions"]
    payload["states"] = [payload["states"][sid] for sid in old_id]
    payload["transitions"] = [{s: new_id[to] for s, to in rows[sid].items()} for sid in old_id]
    payload["start"] = new_id[payload["start"]]


def _cut_states(payload, count):
    del payload["states"][count:], payload["transitions"][count:]


def _corrupt(d, change):
    payload = json.loads(automaton.build(d).to_json())
    change(payload)
    return json.dumps(payload)


@pytest.mark.parametrize(
    "change, message, diagram",
    [
        pytest.param(lambda p: p.pop("version"), "version None", None, id="missing-version"),
        pytest.param(lambda p: p.update(version=1), "version 1", None, id="version-1"),
        pytest.param(
            lambda p: p["states"][3].append(len(p["roots"])),
            NOT_BUILD,
            None,
            id="root-id-too-large",
        ),
        pytest.param(
            lambda p: p["states"][3].insert(0, -1), NOT_BUILD, None, id="root-id-negative"
        ),
        pytest.param(lambda p: p["roots"].reverse(), NOT_BUILD, None, id="roots-out-of-order"),
        pytest.param(
            lambda p: p["roots"].insert(1, p["roots"][1]), NOT_BUILD, None, id="roots-repeated"
        ),
        pytest.param(
            lambda p: p["transitions"][0].update(z=1), NOT_BUILD, None, id="unknown-label"
        ),
        # ids, targets and start are plain ints: the re-dump writes JSON true
        # and 1.5 as read, so they differ from the build's 1
        pytest.param(
            lambda p: p["transitions"][0].update(a=1.5), NOT_BUILD, None, id="target-float"
        ),
        pytest.param(
            lambda p: p["transitions"][0].update(a=True), NOT_BUILD, None, id="target-bool"
        ),
        pytest.param(lambda p: p.update(start=0.5), NOT_BUILD, None, id="start-float"),
        pytest.param(lambda p: p.update(start=True), NOT_BUILD, None, id="start-bool"),
        pytest.param(
            lambda p: p["states"][3].__setitem__(0, 1.5), NOT_BUILD, None, id="root-id-float"
        ),
        pytest.param(
            lambda p: p["states"][3].__setitem__(0, True), NOT_BUILD, None, id="root-id-bool"
        ),
        # build writes an edge on s exactly when alpha_s is not in the state:
        # state 1 is {alpha_a}, so an edge on a would accept "a a a", and with
        # no edge on a from the start the reduced word "a" would reject
        pytest.param(
            lambda p: p["transitions"][1].update(a=0), NOT_BUILD, None, id="edge-on-held-root"
        ),
        pytest.param(lambda p: p["transitions"][0].pop("a"), NOT_BUILD, None, id="edge-missing"),
        pytest.param(
            lambda p: p["states"].__setitem__(3, p["states"][4]),
            NOT_BUILD,
            None,
            id="states-repeated",
        ),
        # coefficients are written as decimal strings: a fraction, a float, a
        # bool or a bare string is not one
        pytest.param(
            lambda p: p["roots"][0][0].__setitem__(0, "1/2"), NOT_BUILD, None, id="coord-fraction"
        ),
        pytest.param(
            lambda p: p["roots"][0][0].__setitem__(0, 1.5), NOT_BUILD, None, id="coord-float"
        ),
        pytest.param(
            lambda p: p["roots"][0][0].__setitem__(0, True), NOT_BUILD, None, id="coord-bool"
        ),
        pytest.param(
            lambda p: p["roots"][0].__setitem__(0, "10"), NOT_BUILD, None, id="coord-string"
        ),
        # the same automaton under other state ids: build numbers the states
        # in BFS order, so no build writes it
        pytest.param(_shuffle_state_ids, NOT_BUILD, None, id="states-shuffled"),
        pytest.param(lambda p: _cut_states(p, 3), "too few states", None, id="states-cut"),
        # an export over Q(2cos(pi/12)), the lcm of all of triangle_334's labels
        pytest.param(
            lambda p: p.update(field={"L": 12, "minpoly": [1, 0, -4, 0, 1]}),
            NOT_BUILD,
            None,
            id="other-field",
        ),
        # the diagram text swapped for another on the same generators and
        # field, with no diagram= to catch it: its automaton has more states
        # than triangle_334's, so the rebuild stops at the export's count
        pytest.param(
            lambda p: p.update(diagram="a b c; a-b:4 b-c"),
            "too few states",
            None,
            id="other-diagram-text",
        ),
        # an unchanged export read with diagram= naming another diagram on the
        # same generators and field: its automaton would accept other words
        pytest.param(
            lambda p: None,
            "export is of diagram .* not CoxeterDiagram",
            parse_diagram("a b c; a-b:4 b-c"),
            id="other-diagram",
        ),
    ],
)
def test_from_json_rejects(change, message, diagram):
    with pytest.raises(ValueError, match=message):
        automaton.ReducedWordAutomaton.from_json(_corrupt(T334, change), diagram=diagram)


def test_export_unknown_format():
    auto = automaton.build(A2)
    with pytest.raises(ValueError):
        auto.export("yaml")
