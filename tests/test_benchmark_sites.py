"""The benchmark tracer's wrapper sites must exist in the program.

``perfbench/tracer.py`` wraps each (module, attribute) pair of its
``LAYERS`` when a traced run starts; a refactor that drops one of these
names makes ``perfbench/run.py --trace 1`` fail there.  The tracer is
loaded from its file and only read.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


SITES = sorted({site for sites in _layers().values() for site in sites})


@pytest.mark.parametrize("mod_name,attr", SITES, ids=[f"{m}.{a}" for m, a in SITES])
def test_site_resolves(mod_name, attr):
    module = importlib.import_module(f"hermult.{mod_name}")
    assert callable(getattr(module, attr, None))
