"""The benchmark's tracer (bench/tracing.py) wraps package attributes by
name, and its untraced runs look every one of them up each cycle: a renamed
or deleted call site would crash every workload."""

from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_traced_call_site_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    # installed_wrappers() reads each (owner, attribute) that _targets() lists
    assert tracing.installed_wrappers() == []
