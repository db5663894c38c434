"""The benchmark's spec documents stay valid specs.

The benchmark times ``SpecDocument.from_dict`` on the documents its
workloads build, so a stricter spec reader that refused one of them would
turn benchmark operations into failures; this test fails instead.
"""

import importlib
from pathlib import Path

import pytest

from contourchain.cli import SpecDocument

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("workload", ["annulus_verify", "tight_chain"])
def test_benchmark_spec_documents_are_accepted(monkeypatch, workload):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    for seed in range(101, 106):
        for op in workloads.build(workload, seed):
            SpecDocument.from_dict(op.inputs)
