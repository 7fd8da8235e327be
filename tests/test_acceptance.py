"""Acceptance suite: every criterion runs at its stated (exact) tolerance.

One pass/fail line is printed per criterion; run with `pytest -v -s
tests/test_acceptance.py` to see the table.  Each criterion also carries a
wall-clock budget, asserted against the sum of its checks.
"""

import json
import random
from array import array
from collections import Counter
from pathlib import Path

import pytest

from coxwalk import verification
from coxwalk.automaton import ReducedWordAutomaton
from coxwalk.element import format_word, group_for

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
    checked, mismatches = verification._oracle_exhaustive(d, bad, 8)
    assert checked == 9841
    expected = CORRUPTED_TABLES[entry, value]
    assert len(mismatches) == sum(expected.values())  # 66 dropped, 185 added
    assert Counter((m["length"], m["accepted"]) for m in mismatches) == expected


def _per_word_oracle(d, auto, max_len, samples, seed):
    """The random oracle one word at a time: the same draws, each word
    judged from the identity by `is_reduced`."""
    group = group_for(d)
    rng = random.Random(seed)
    mismatches = []
    for _ in range(samples):
        k = rng.randint(0, max_len)
        word = tuple(rng.randrange(d.rank) for _ in range(k))
        if auto.accepts(word) != group.is_reduced(word):
            mismatches.append({"word": format_word(d, word)})
    return mismatches


def test_random_oracle_matches_per_word_oracle(vctx):
    d = vctx.fixture("triangle_334")
    auto = vctx.automaton_for("triangle_334")
    seed = verification.ORACLE_SEED
    checked, mismatches = verification._oracle_random(d, auto, 8, 2000, seed)
    assert checked == 2000
    assert mismatches == _per_word_oracle(d, auto, 8, 2000, seed) == []
    for entry, value in sorted(CORRUPTED_TABLES):
        bad = _corrupted(auto, entry, value)
        _, mismatches = verification._oracle_random(d, bad, 8, 2000, seed)
        assert mismatches  # a dropped and an added edge both show
        assert mismatches == _per_word_oracle(d, bad, 8, 2000, seed)


@pytest.mark.parametrize("name", ["affine_a2", "i2inf", "triangle_334"])
def test_left_quotient_length_matches_product(vctx, name):
    ball = group_for(vctx.fixture(name)).ball(4)
    for k in range(len(ball.counts)):
        level = ball.of_length(k)
        for v in level:
            for w in level:
                assert verification._left_quotient_length(v, w) == (v.inverse() * w).length()
