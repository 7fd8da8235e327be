"""Acceptance suite: every criterion runs at its stated (exact) tolerance.

One pass/fail line is printed per criterion; run with `pytest -v -s
tests/test_acceptance.py` to see the table.  Each criterion also carries a
wall-clock budget, asserted against the sum of its checks.
"""

import json
import tracemalloc
from array import array
from collections import Counter
from itertools import product
from pathlib import Path

import pytest

from coxwalk import verification
from coxwalk.automaton import ReducedWordAutomaton
from coxwalk.element import GroupElement, group_for
from product_reference import product_length

# The details of all 25 checks, JSON-normalized: the measured values behind
# each verdict.  A change to any of them is a change to a reproduced fact.
EXPECTED_DETAILS = json.loads(
    (Path(__file__).parent / "data" / "verify_paper_details.json").read_text()
)

BUDGET_SECONDS = {
    1: 60,
    2: 10,
    3: 60,
    4: 30,
    5: 120,
    6: None,
    7: 120,
    8: None,
    9: 10,
    10: 10,
}


@pytest.fixture(scope="module")
def results(vctx):
    return verification.run_checks(ctx=vctx)


@pytest.mark.parametrize("criterion", verification.CRITERIA)
def test_criterion(criterion, results):
    checks = [r for r in results if r.criterion == criterion]
    assert checks, f"criterion {criterion} has no checks"
    elapsed = sum(r.elapsed for r in checks)
    passed = all(r.passed for r in checks)
    print(
        f"criterion {criterion:>2}: {'PASS' if passed else 'FAIL'} "
        f"({len(checks)} checks, {elapsed:.2f}s)"
    )
    for r in checks:
        if not r.passed:
            print(f"  FAILED {r.check_id}: {r.description}")
            print(f"    details: {r.details}")
    assert passed
    budget = BUDGET_SECONDS[criterion]
    if budget is not None:
        assert elapsed < budget, f"criterion {criterion} took {elapsed:.1f}s"


def test_every_registered_check_passed(results):
    failed = [r.check_id for r in results if not r.passed]
    assert not failed


def test_details_match_pinned_values(results):
    details = {r.check_id: json.loads(json.dumps(r.details, default=str)) for r in results}
    assert details == EXPECTED_DETAILS


# Corruptions of the triangle_334 automaton's transition table: (entry,
# new value) -> mismatches per (length, accepted) over the 9841 words of
# length <= 8.  Entry 9 (state 3 on a) is an edge, dropped; entry 3
# (state 1 on a) is the first missing edge, added with the start state as
# its target.
CORRUPTED_TABLES = {
    (9, -1): {(2, False): 1, (3, False): 2, (4, False): 4, (5, False): 6,
              (6, False): 10, (7, False): 16, (8, False): 27},
    (3, 0): {(2, True): 1, (3, True): 3, (4, True): 7, (5, True): 15,
             (6, True): 27, (7, True): 49, (8, True): 83},
}


def _corrupted(auto, entry, value):
    table = array("i", auto.table)
    table[entry] = value
    return ReducedWordAutomaton(
        auto.diagram, auto.field, auto.root_vectors, auto.states, table, auto.simple_root_ids
    )


@pytest.mark.parametrize("entry, value", sorted(CORRUPTED_TABLES))
def test_exhaustive_oracle_catches_a_corrupted_table(vctx, entry, value):
    d = vctx.fixture("triangle_334")
    bad = _corrupted(vctx.automaton_for("triangle_334"), entry, value)
    checked, counts, examples = verification._oracle_exhaustive(d, bad, 8)
    assert checked == 9841
    expected = CORRUPTED_TABLES[entry, value]
    assert sum(counts.values()) == sum(expected.values())  # 66 dropped, 185 added
    assert counts == expected
    assert len(examples) == 5


def test_exhaustive_oracle_matches_per_word_oracle(vctx):
    """The class walk against a naive reference: every word of length <= 8
    judged one at a time, reducedness by `is_reduced` from the identity and
    acceptance by `accepts` from the start state.  On triangle_334 the
    intact table and each corrupted one are walked to max_len 0, 1, 2 and
    8; at 0 and 1 the first level is also the last, which is judged by
    length alone.  The intact tables of i2inf and affine_a2 are walked to
    max_len 8.  Reducedness does not depend on the table, so it is judged
    once per fixture."""
    for name, lengths, words_checked in [
        ("triangle_334", (0, 1, 2, 8), 9841),
        ("i2inf", (8,), 511),
        ("affine_a2", (8,), 9841),
    ]:
        d = vctx.fixture(name)
        auto = vctx.automaton_for(name)
        group = group_for(d)
        words = [w for k in range(9) for w in product(range(d.rank), repeat=k)]
        reduced = [group.is_reduced(w) for w in words]
        tables = [auto]
        if name == "triangle_334":
            tables += [_corrupted(auto, e, v) for e, v in sorted(CORRUPTED_TABLES)]
        found = []
        for table in tables:
            # (length, accepted) of each mismatching word, in length order
            wrong = []
            for word, ok in zip(words, reduced):
                accepted = table.accepts(word)
                if accepted != ok:
                    wrong.append((len(word), accepted))
            for max_len in lengths:
                within = [key for key in wrong if key[0] <= max_len]
                checked, counts, examples = verification._oracle_exhaustive(d, table, max_len)
                assert checked == sum(d.rank**k for k in range(max_len + 1))
                assert counts == Counter(within)
                first = within[: verification.MISMATCH_EXAMPLES]
                assert [e["length"] for e in examples] == [k for k, _ in first]
            assert checked == len(words) == words_checked
            found.append(counts)
        assert not found[0] and all(found[1:])  # only the corrupted tables mismatch


def test_exhaustive_oracle_steps_each_ascent_once(vctx, monkeypatch):
    """To max_len 8 the walk makes one right step per ascent (el, s) with
    l(el) <= 6, so sum(n - |right descents|) over the ball of radius 6, and
    judges the last letter by length, so it makes no element of length 8."""
    made = []
    step = GroupElement.right_mul_gen

    def counted(el, s):
        made.append(step(el, s))
        return made[-1]

    for name in ["i2inf", "affine_a2", "universal_rank3", "triangle_334", "case_vi"]:
        d = vctx.fixture(name)
        ascents = sum(d.rank - len(el.right_descents()) for el in group_for(d).ball(6))
        made.clear()
        with monkeypatch.context() as m:
            m.setattr(GroupElement, "right_mul_gen", counted)
            _, counts, _ = verification._oracle_exhaustive(d, vctx.automaton_for(name), 8)
        assert not counts
        assert len(made) == ascents
        assert max(el.length() for el in made) == 7


# case_vi's table with entry 0 (the start state on s) dropped: mismatches
# per (length, accepted) over the 488 281 words of length <= 8.
CORRUPTED_RANK5 = {(1, False): 1, (2, False): 4, (3, False): 13, (4, False): 40,
                   (5, False): 120, (6, False): 339, (7, False): 935, (8, False): 2461}


def test_corrupted_rank5_table_fails_oracle_case_vi(vctx, case_vi_automaton):
    bad = _corrupted(case_vi_automaton, 0, -1)
    checked, counts, examples = verification._oracle_exhaustive(vctx.fixture("case_vi"), bad, 8)
    assert checked == 488281
    assert sum(counts.values()) == 3913
    assert counts == CORRUPTED_RANK5
    ctx = verification.VerificationContext()
    ctx._automata["case_vi"] = bad
    passed, details = verification.check_oracle_case_vi(ctx)
    assert not passed
    assert details["words_checked"] == 488281
    assert details["mismatches"] == examples
    assert examples == [{"length": 1, "accepted": False}] + [{"length": 2, "accepted": False}] * 4


def test_oracle_memory_does_not_grow_with_mismatches(vctx, case_vi_automaton):
    """case_vi's table with every missing edge sent to the start state
    accepts 469 033 words that are not reduced.  The check reports five of
    them and counts the rest, so its traced peak stays that of the class
    walk, 0.89 MB when measured on CPython 3.11; a dict per mismatching
    word would take 87 MB."""
    auto = case_vi_automaton
    table = array("i", [max(to, 0) for to in auto.table])
    ctx = verification.VerificationContext()
    ctx._automata["case_vi"] = ReducedWordAutomaton(
        auto.diagram, auto.field, auto.root_vectors, auto.states, table, auto.simple_root_ids
    )
    tracemalloc.start()
    try:
        passed, details = verification.check_oracle_case_vi(ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not passed
    assert details["words_checked"] == 488281
    assert len(details["mismatches"]) == 5
    assert peak < 8 * 2**20


@pytest.mark.parametrize("name", ["affine_a2", "i2inf", "triangle_334"])
def test_quotient_length_matches_column_product(vctx, name):
    """l(w^-1 v) as the same-length check reads it, from the product's
    right steps, against the column product and a fresh walk."""
    ball = group_for(vctx.fixture(name)).ball(4)
    for k in range(len(ball.counts)):
        level = ball.of_length(k)
        for v in level:
            for w in level:
                assert (w.inverse() * v).length() == product_length(w.inverse(), v)
