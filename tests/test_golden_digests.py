"""Canonical answers on a fixed corpus against their committed digests.

``tools/golden_digests.py`` solves the corpus and keeps a short SHA-256 of
each answer's canonical JSON in ``tests/golden/digests.json``.  A change
to elimination, assembly or routing must leave every digest as it is; a
test failure names each key that moved.  The records that take over a
second each are checked in a test of their own, marked ``slow``.
"""

import importlib.util
import os

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
spec = importlib.util.spec_from_file_location("golden_digests", os.path.join(ROOT, "tools", "golden_digests.py"))
golden_digests = importlib.util.module_from_spec(spec)
spec.loader.exec_module(golden_digests)


def check(keys):
    want = {k: v for k, v in golden_digests.load().items() if k in keys}
    got = golden_digests.compute(keys)
    bad = golden_digests.differing(got, want)
    assert not bad, "digests differ: " + ", ".join(bad)


def test_digests_match():
    keys = set(golden_digests.load()) | set(golden_digests.records())
    check(keys - golden_digests.SLOW)


@pytest.mark.slow
def test_slow_digests_match():
    check(set(golden_digests.SLOW))
