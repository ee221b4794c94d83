"""The benchmark's four workloads at seed 101 and full size give the output
digests every ``BENCH_*.json`` was recorded with, so a change that moves any
output byte on those paths fails here.

``Generator.normal`` draws depend on the numpy version, so the digests are
pinned for numpy 2.4.6 only.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"

DIGESTS = {
    "exfil_cli": "63182adbb9173fddfb2c094de484727876d2d72819414a8d27ab276fc323261a",
    "diode_link": "b1b15f43ebcb0f65b457ef4cee45b36b24f679ee93922cea3afd1993734a9c19",
    "mac_burst": "7483d02805ef43de9b5dfdddebb1bb4a9ae1624f7fc54a96d84c6bcf06ca3702",
    "stretch_sweep": "3acfa22dcf8b889b0f93e785010930d89153f76bc1e1814bfe2fb72f75308333",
}


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look up their module here
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.skipif(np.__version__ != "2.4.6",
                    reason="digests were recorded with numpy 2.4.6's Generator.normal")
@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_seed_101_digest(workloads, name, tmp_path):
    workload = workloads.make_workloads(tmp_path)[name]
    inputs = workload.make_inputs(101)
    outcome = workload.check(inputs, workload.run_job(inputs))
    assert outcome.ok, outcome.detail
    assert outcome.digest == DIGESTS[name]
