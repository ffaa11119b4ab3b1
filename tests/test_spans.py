"""Every entry point the benchmark's tracer wraps still exists.

``bench/spans.py`` names its targets as (module, attribute) strings, so a
renamed function would otherwise surface only in a traced benchmark run.
The module is read from its file; nothing is installed.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("target", _targets(), ids=lambda t: f"{t[0]}:{t[1]}")
def test_traced_target_resolves(target):
    modname, attr, _, _ = target
    owner = importlib.import_module(modname)
    *classes, name = attr.split(".")
    for cls_name in classes:
        owner = getattr(owner, cls_name)
    # a method is looked up in its class's own namespace, as the tracer does
    found = owner.__dict__[name] if classes else getattr(owner, name)
    assert callable(getattr(found, "__func__", found))
