"""Tests for the package's public surface."""

import enriques_invariants


def test_every_export_resolves():
    missing = [n for n in enriques_invariants.__all__ if not hasattr(enriques_invariants, n)]
    assert missing == []
