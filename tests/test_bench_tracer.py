"""The benchmark's tracer finds every name it wraps in the package.

The tracer (bench/tracer.py) times stages by wrapping functions where the
package's modules look them up; a renamed or deleted name only drops the
per-layer metrics that need it.  This test makes that a failure.
"""

import importlib.util
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_tracer_wraps_every_listed_name():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    with tracer.Tracer().installed() as installed:
        assert installed.missing == []
