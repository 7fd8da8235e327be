"""Acceptance suite: every criterion runs at its stated (exact) tolerance.

One pass/fail line is printed per criterion; run with `pytest -v -s
tests/test_acceptance.py` to see the table.  Each criterion also carries a
wall-clock budget, asserted against the sum of its checks.
"""

import json
from array import array
from collections import Counter
from pathlib import Path

import pytest

from coxwalk import verification
from coxwalk.automaton import ReducedWordAutomaton

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


@pytest.mark.parametrize("entry, value", sorted(CORRUPTED_TABLES))
def test_exhaustive_oracle_catches_a_corrupted_table(vctx, entry, value):
    d = vctx.fixture("triangle_334")
    auto = vctx.automaton_for("triangle_334")
    table = array("i", auto.table)
    table[entry] = value
    bad = ReducedWordAutomaton(
        auto.diagram, auto.field, auto.root_vectors, auto.states, table, auto.simple_root_ids
    )
    checked, mismatches = verification._oracle_exhaustive(d, bad, 8)
    assert checked == 9841
    expected = CORRUPTED_TABLES[entry, value]
    assert len(mismatches) == sum(expected.values())  # 66 dropped, 185 added
    assert Counter((m["length"], m["accepted"]) for m in mismatches) == expected
