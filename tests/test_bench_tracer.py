"""The benchmark's tracer names only functions that fifolab still has."""

import importlib
import importlib.util
from collections import Counter
from fractions import Fraction
from pathlib import Path

from fifolab import demo_instance

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_name_resolves():
    tracer = _load_tracer()
    for layer, names in tracer.TRACED.items():
        module = importlib.import_module(f"fifolab.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"fifolab.{layer}.{name}"


def test_analyze_calls_each_traced_layer_once():
    # the per-layer metrics and offline.dp_opt.calls_per_analyze assume these calls
    tracer = _load_tracer()
    modules = {layer: importlib.import_module(f"fifolab.{layer}") for layer in tracer.TRACED}
    with tracer.Tracer(modules) as traced:
        modules["analysis"].analyze(demo_instance(Fraction(2)), Fraction(2))
    spans = Counter(span[0] for span in traced.spans)
    for name in (
        "analysis.analyze",
        "simulate.run",
        "offline.brute_force_opt",
        "offline.dp_opt",
        "analysis.run_ropt",
        "analysis.verify_ropt",
        "analysis.build_ledger",
        "analysis.verify_ledger",
    ):
        assert spans[name] == 1, (name, spans)
