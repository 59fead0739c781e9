"""The package's public names: ``hexcount.__all__``."""

import hexcount


def test_every_exported_name_resolves():
    missing = [name for name in hexcount.__all__ if not hasattr(hexcount, name)]
    assert missing == []


def test_every_exported_name_appears_once():
    assert len(set(hexcount.__all__)) == len(hexcount.__all__)


def test_exports_are_sorted():
    assert hexcount.__all__ == sorted(hexcount.__all__)
