"""Unit tests for the helpers the repo benchmark imports from
:mod:`repro.perf.harness`."""

import pytest

from repro.perf.harness import geomean, git_rev


def test_geomean():
    # an empty sequence has no geometric mean — a fabricated 0.0 would
    # read as "infinitely slow" in a comparison
    with pytest.raises(ValueError, match="empty"):
        geomean([])
    assert geomean([2.0, 8.0]) == pytest.approx(4.0)
    assert geomean([3.0]) == pytest.approx(3.0)


def test_git_rev_is_nonempty_string():
    rev = git_rev()
    assert isinstance(rev, str) and rev
