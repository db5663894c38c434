"""The benchmark's tracer wraps package functions by the names it looks up.

A change that removes or renames one of those names breaks the traced
benchmark run; this test fails instead.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_tracer_wraps_and_restores_every_patched_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    originals = [(owner, attr, _current(owner, attr)) for owner, attr, _, _ in tracing._PATCHES]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for owner, attr, raw in originals:
            assert _current(owner, attr) is not raw, attr
    finally:
        tracer.uninstall()
    for owner, attr, raw in originals:
        assert _current(owner, attr) is raw, attr
