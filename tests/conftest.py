import sys
from collections import Counter

import pytest

import diffeokit  # noqa: F401  (loads every module, so every binding is patched)

_COUNTED = [
    ("diffeokit.tangent", "vect_colimit"),
    ("diffeokit.presentation", "validate_presentation"),
    ("diffeokit.symcalc", "compose_maps"),
    ("diffeokit.symcalc", "jacobian_at_zero"),
]


@pytest.fixture
def call_counts(monkeypatch):
    """Counter of calls to ``vect_colimit``, ``validate_presentation``,
    ``compose_maps`` and ``jacobian_at_zero``.

    Each function is replaced at every ``diffeokit`` module that binds it, so
    calls through ``from .x import y`` are counted too.  Clear the counter
    after building the inputs of the call under test.
    """
    counts = Counter()
    for module, name in _COUNTED:
        original = getattr(sys.modules[module], name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for modname, mod in list(sys.modules.items()):
            if modname == "diffeokit" or modname.startswith("diffeokit."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, key, counted)
    return counts
