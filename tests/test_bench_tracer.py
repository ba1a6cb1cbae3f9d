"""The benchmark tracer finds every library name it wraps."""

import importlib
import importlib.util
from pathlib import Path

TRACE_RUN = Path(__file__).resolve().parent.parent / "bench" / "trace_run.py"


def test_every_wrapped_name_resolves():
    spec = importlib.util.spec_from_file_location("bench_trace_run", TRACE_RUN)
    trace_run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace_run)
    missing = [
        f"{module}.{attr}"
        for module, attr, _span in trace_run.WRAPPED
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []
