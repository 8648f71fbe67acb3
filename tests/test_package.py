"""The package's public export list."""

import milnor_mu


def test_every_export_resolves_once_in_sorted_order():
    names = milnor_mu.__all__
    assert [name for name in names if not hasattr(milnor_mu, name)] == []
    assert len(set(names)) == len(names)
    assert names == sorted(names)
