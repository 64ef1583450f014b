"""benchmarks/record.py: a checkout without a ``.git`` of its own.

An extracted ``git archive`` has no ``.git``; git would refuse it, or,
inside another work tree, report that tree's commit. Its commit is
recorded as null, and git is never called for it.
"""

import pytest


def test_archive_checkout_has_no_commit(record, tmp_path, monkeypatch):
    def no_git(*args, **kwargs):
        pytest.fail(f"git called for a checkout without .git: {args[0]}")

    monkeypatch.setattr(record.subprocess, "run", no_git)
    assert record.commit_of(tmp_path) is None
