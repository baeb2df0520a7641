import types

import qarfcs


def test_public_names_resolve():
    names = qarfcs.__all__
    assert len(set(names)) == len(names) == 54
    for name in names:
        assert not isinstance(getattr(qarfcs, name), types.ModuleType)
    assert {"ContinuationError", "PRESET_IDS", "charpoly", "cgf", "grid_scan"} <= set(names)
    assert "__version__" not in names
