"""The names that `bench/run.py --trace 1` wraps must exist in `bifree`.

`bench/spans.py` lists the public functions and methods it traces by name; a
deleted or renamed one would only show when the traced bench runs.  This test
reads that list and does not change `bench/`.
"""
import importlib
import importlib.util
import os

SPANS = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "spans.py")


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    spans = _spans()
    for module_name, functions in spans.FUNCTIONS.items():
        module = importlib.import_module(f"bifree.{module_name}")
        for fname in functions:
            assert callable(getattr(module, fname, None)), f"bifree.{module_name}.{fname}"
    for name, (module_name, cls_name, method) in spans.METHODS.items():
        cls = getattr(importlib.import_module(f"bifree.{module_name}"), cls_name)
        # Tracer.install reads the method from the class's own namespace
        assert callable(cls.__dict__.get(method)), name
