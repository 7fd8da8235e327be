"""Acceptance suite: every criterion runs at its stated (exact) tolerance.

One pass/fail line is printed per criterion; run with `pytest -v -s
tests/test_acceptance.py` to see the table.  Each criterion also carries a
wall-clock budget, asserted against the sum of its checks.
"""

import json
from pathlib import Path

import pytest

from coxwalk import verification

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
