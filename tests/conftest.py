"""Shared test configuration.

Property-based tests run exact big-integer arithmetic whose per-example cost
varies widely, so the wall-clock deadline is disabled in favor of a fixed
example budget.  The off_by_one fixture makes a triangle with one wrong
entry, for the tests that show a sweep reports it.
"""
import pytest
from hypothesis import HealthCheck, settings

from lstirling.triangles import Triangle

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def off_by_one():
    """make(triangle, (n, k)): a fresh copy of triangle whose T(n,k) alone is one too large.

    The fault sits in the row step, so that value and rows both read it;
    row n+1 is built from the true row n.
    """

    def make(triangle, at):
        n, k = at
        fresh = Triangle(triangle.step, triangle.one, triangle.zero, triangle.tag)
        step = fresh._next_row

        def next_row(prev):
            if len(prev) == n + 1:
                prev = [c - 1 if j == k else c for j, c in enumerate(prev)]
            row = step(prev)
            if len(prev) == n:
                row[k] = row[k] + 1
            return row

        fresh._next_row = next_row
        return fresh

    return make
