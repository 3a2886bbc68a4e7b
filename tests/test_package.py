"""The package's top-level namespace."""
import selfcma as sc


def test_every_exported_name_resolves():
    missing = [name for name in sc.__all__ if not hasattr(sc, name)]
    assert missing == []
    assert len(set(sc.__all__)) == len(sc.__all__)
