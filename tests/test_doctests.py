"""Execute the docstring examples of the public API."""

import doctest

import pytest

import repro.api.session
import repro.api.spec
import repro.comm.calibration
import repro.comm.cost_model
import repro.comm.functional
import repro.comm.process_group
import repro.core.partition
import repro.data.criteo
import repro.hardware.specs
import repro.hardware.topology
import repro.nn.interactions
import repro.partitioner.interaction_probe
import repro.partitioner.mds
import repro.partitioner.tower_partitioner
import repro.perf.iteration_model
import repro.perf.quantization
import repro.sim.cluster
import repro.training.metrics
import repro.training.stats

MODULES = [
    repro.hardware.specs,
    repro.hardware.topology,
    repro.comm.calibration,
    repro.comm.cost_model,
    repro.comm.functional,
    repro.comm.process_group,
    repro.sim.cluster,
    repro.core.partition,
    repro.partitioner.interaction_probe,
    repro.partitioner.mds,
    repro.partitioner.tower_partitioner,
    repro.perf.iteration_model,
    repro.perf.quantization,
    repro.data.criteo,
    repro.training.metrics,
    repro.training.stats,
    repro.api.spec,
    repro.api.session,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    failures, tests = doctest.testmod(
        module, verbose=False, raise_on_error=False
    ).failed, doctest.testmod(module, verbose=False).attempted
    assert failures == 0, f"{module.__name__}: {failures} doctest failures"
    assert tests > 0, f"{module.__name__} has no doctest examples"
