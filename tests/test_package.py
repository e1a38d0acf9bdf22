import types

import entbounds


def test_all_names_resolve():
    for name in entbounds.__all__:
        assert hasattr(entbounds, name), name
    assert len(set(entbounds.__all__)) == len(entbounds.__all__)


def test_all_lists_every_public_name():
    public = {name for name, value in vars(entbounds).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert set(entbounds.__all__) == public
