"""Every library function that the benchmark's tracer wraps still exists.

``bench/tracer.py`` names its targets by module and dotted attribute; a
refactor that moves or renames one of them would otherwise surface only
in a traced benchmark run.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_module = _tracer()
TARGETS = sorted(
    {target for targets in _module.SPANS.values() for target in targets}
    | set(_module.COUNTED.values())
)


@pytest.mark.parametrize("module, attr", TARGETS, ids=[f"{m}:{a}" for m, a in TARGETS])
def test_tracer_target_resolves_to_a_function(module, attr):
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    # a method is looked up where it is defined, as the tracer rebinds it
    found = vars(owner)[name] if path else getattr(owner, name)
    if isinstance(found, classmethod):
        found = found.__func__
    assert inspect.isfunction(found), f"{module}.{attr} is {found!r}"
