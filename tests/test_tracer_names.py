"""Every name the benchmark's tracer patches must exist where it patches it.

`bench/tracer.py` replaces each listed attribute with a bare `getattr`, so a
module that stops importing one of those names crashes every traced
benchmark run with AttributeError. The tracer is loaded here as a plain
module and only read; nothing is patched.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_every_patched_name_exists():
    spec = importlib.util.spec_from_file_location("qbattery_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    patched = [(mods, attr) for _, mods, attr, *_ in tracer._FUNCTIONS]
    patched += list(tracer._GENERATORS.values())
    missing = [f"qbattery.{mod}.{attr}" for mods, attr in patched for mod in mods
               if not hasattr(tracer._mods[mod], attr)]
    assert patched
    assert missing == []
