import types

import robustmm


def test_public_names_resolve_and_none_is_a_module():
    assert len(set(robustmm.__all__)) == len(robustmm.__all__)
    for name in robustmm.__all__:
        assert not isinstance(getattr(robustmm, name), types.ModuleType), name
