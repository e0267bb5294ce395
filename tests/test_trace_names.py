"""Every function the benchmark tracer wraps must still exist in ddcrb.

`perfbench/run.py --trace 1` looks each TRACED path up with getattr, so a
renamed or deleted function would break traced runs; this catches it here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def traced_paths():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


@pytest.mark.parametrize("name,module,path", traced_paths())
def test_traced_name_resolves_to_callable(name, module, path):
    obj = importlib.import_module(module)
    for attr in path.split("."):
        obj = getattr(obj, attr)
    assert callable(obj), name
