import types

import sephorn


def test_all_lists_exactly_the_public_bindings():
    # every exported name resolves, and every public binding of the package
    # that is not a submodule is exported, so a removed function cannot
    # linger in either place
    unresolved = [name for name in sephorn.__all__ if not hasattr(sephorn, name)]
    assert unresolved == []
    assert len(set(sephorn.__all__)) == len(sephorn.__all__)
    public = {name for name, value in vars(sephorn).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set(sephorn.__all__)
