"""The package's public names."""

import gracetree


def test_all_names_resolve_once():
    assert len(gracetree.__all__) == len(set(gracetree.__all__))
    missing = [name for name in gracetree.__all__ if not hasattr(gracetree, name)]
    assert missing == []
