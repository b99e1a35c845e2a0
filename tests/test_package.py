"""The package namespace: what `from foamcalc import *` exports."""

from types import ModuleType

import foamcalc


def test_all_exports_the_public_api_and_no_modules():
    exported = {name: getattr(foamcalc, name) for name in foamcalc.__all__}
    assert not [name for name, value in exported.items() if isinstance(value, ModuleType)]
    assert {"FoamDiagram", "apply_move", "flip_reduce", "parse_document", "Weight"} <= set(exported)
    assert "dsl" not in exported and "weights" not in exported
    namespace: dict = {}
    exec("from foamcalc import *", namespace)
    assert set(exported) <= set(namespace)
