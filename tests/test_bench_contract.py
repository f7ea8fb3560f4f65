"""The benchmark's hooks into the package still resolve.

`bench/spans.py` wraps package functions by module and name, and
`bench/selftest.py` reads `reclaim.continuous.topological_order`. A
refactor that renames one of them would crash `bench/run.py --trace 1`;
this test fails first. The benchmark file is only read, never changed.
"""

import importlib
import importlib.util
import pathlib

SPANS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_traced_function_resolves():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TRACED
    for module, name, _ in spans.TRACED:
        assert callable(getattr(importlib.import_module(module), name, None)), (module, name)


def test_continuous_still_imports_topological_order():
    import reclaim.continuous
    import reclaim.graph

    assert reclaim.continuous.topological_order is reclaim.graph.topological_order
