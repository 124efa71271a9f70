"""The package's public namespace."""

import jameslab


def test_every_export_resolves_and_is_listed_once():
    names = jameslab.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(jameslab, name)]
    assert missing == []
