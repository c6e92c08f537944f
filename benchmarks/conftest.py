"""Benchmark-suite configuration.

Every benchmark regenerates one of the paper's tables/figures and
asserts its headline claims.  Run with ``pytest benchmarks/
--benchmark-only``.  The result is saved under pytest's ``tmp_path``
(exercising the save path without touching tracked files); the
committed ``results/`` — one ``.txt``/``.json`` pair per registered
experiment — are regenerated with ``dmt-repro all --save results``.
"""

import pytest


@pytest.fixture
def regen(benchmark, tmp_path):
    """Run an experiment once under the benchmark timer, save and
    return its result."""

    def _run(runner, fast: bool = True):
        result = benchmark.pedantic(
            runner, kwargs={"fast": fast}, iterations=1, rounds=1
        )
        result.save(str(tmp_path))
        return result

    return _run
