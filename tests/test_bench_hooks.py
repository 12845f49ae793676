"""The benchmark tracer (perfbench/tracing.py) hooks srloop functions by name
and drops the metrics of a hook whose target is gone, so a renamed or deleted
hooked function silently removes per-layer metrics. Every hook must find its
target; Candidate.build is gone already, and no metric depends on it."""

from pathlib import Path

import srloop.cli  # noqa: F401  the tracer hooks the modules the CLI imports

PERFBENCH = Path(__file__).parents[1] / "perfbench"


def test_the_tracer_finds_its_hooks(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert set(tracer.missing) <= {"srloop.pareto.Candidate.build"}
    finally:
        tracer.uninstall()
