"""The benchmark traces functions by name and skips a name that no longer
exists, so a rename would silently drop a per-layer metric.  This guard
fails instead."""

import importlib.util
from pathlib import Path

import gevreylab.cli  # noqa: F401  (imports every gevreylab module)

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_traced_name_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    t = tracer.Tracer()
    try:
        t.install(tracer.TARGETS)
        assert len(tracer.TARGETS) == 35
        assert t.wrapped == [name for name, *_ in tracer.TARGETS]
    finally:
        t.uninstall()
