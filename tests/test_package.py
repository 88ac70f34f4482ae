"""The package's public names."""

import periodkit


def test_all_names_resolve_once():
    # a name left in __all__ after its deletion would break only
    # `from periodkit import *`; here it fails the ordinary suite
    assert len(set(periodkit.__all__)) == len(periodkit.__all__)
    assert [name for name in periodkit.__all__ if not hasattr(periodkit, name)] == []
