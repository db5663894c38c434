"""The benchmark's operations keep running and passing their own checks.

The benchmark times ``SpecDocument.from_dict`` on the documents its
workloads build, so a stricter spec reader that refused one of them would
turn benchmark operations into failures; this test fails instead.  Likewise
every operation of every workload in ``BENCHMARK.json`` is run once, at
seed 101, through the check the benchmark applies to its output, so a change
that breaks a benchmark output fails here and not only in ``perfbench/run.py``.
The chain workloads run on ten seeds: at a curved end, the benchmark's
independent bound on a pair carries up to (Lp + Lq)/16384 of Lipschitz
slack, so a pair certified within that of its bound would pass in the
package and fail the benchmark's check on some seeds.  The near-pole
workload runs on ten seeds too, 840 integrals and windings checked against
the residue: the quadrature's first pieces depend on where the pole sits.

The chains the benchmark times keep their shapes, members times shared
vertices, on the ten seeds: a claim that a chain got faster to build cannot
rest on a coarser chain.  A change to the chain's sizing updates these pins
and says so.
"""

import importlib
import json
from pathlib import Path

import pytest

from contourchain.cli import SpecDocument

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
SEEDS = {"annulus_verify": range(101, 111), "tight_chain": range(101, 111),
         "near_pole_integrals": range(101, 111)}


def _workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("workloads")


@pytest.mark.parametrize("workload", ["annulus_verify", "tight_chain"])
def test_benchmark_spec_documents_are_accepted(monkeypatch, workload):
    workloads = _workloads(monkeypatch)
    for seed in range(101, 106):
        for op in workloads.build(workload, seed):
            SpecDocument.from_dict(op.inputs)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_operations_pass_their_checks(monkeypatch, workload):
    workloads = _workloads(monkeypatch)
    for seed in SEEDS.get(workload, [101]):
        ops = workloads.build(workload, seed)
        assert ops
        for op in ops:
            op.check(op.run())


# (workload, family): (members, shared vertices) of every seed's chain
CHAIN_SHAPES = {
    ("tight_chain", "star-square"): (12, 5),
    ("tight_chain", "circle-circle"): (3, 17),
    ("tight_chain", "ellipse-ellipse"): (3, 16),
    ("annulus_verify", "circle-circle"): (4, 13),
    ("annulus_verify", "square-circle"): (4, 13),
    ("annulus_verify", "circle-ellipse"): (4, 13),
}


@pytest.mark.parametrize("workload", ["annulus_verify", "tight_chain"])
def test_benchmark_chains_keep_their_shapes(monkeypatch, workload):
    workloads = _workloads(monkeypatch)
    for seed in range(101, 111):
        ops = workloads.build(workload, seed)
        assert {op.family for op in ops} == {f for w, f in CHAIN_SHAPES if w == workload}
        for op in ops:
            out = op.run()
            chain = out if workload == "tight_chain" else out[0].chain
            assert (len(chain), chain.breakpoints.size) == CHAIN_SHAPES[workload, op.family], \
                (seed, op.family)
