"""The layer functions that perfbench's tracer wraps must exist, so that a
removed or renamed one fails here instead of breaking `perfbench/run.py
--trace`."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_tracer_layer_functions_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for name, modname, attr in tracer.LAYER_FUNCTIONS:
        mod = importlib.import_module(modname)
        if "." in attr:
            # Tracer.install reads a method from its class __dict__
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name, None)
            found = cls is not None and meth in vars(cls)
        else:
            found = callable(getattr(mod, attr, None))
        if not found:
            missing.append(name)
    assert missing == []
