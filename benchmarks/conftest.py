"""Benchmark-suite configuration.

Each benchmark regenerates one table or figure of the paper through the
experiment harness and prints the rendered result, so ``pytest benchmarks/
--benchmark-only`` doubles as the artifact's "reproduce the evaluation"
entry point.  Runs are memoised in a process-wide cache
(:data:`repro.experiments.common.GLOBAL_CACHE`) so related benchmarks (e.g.
Figures 2 and 3) share application executions.
"""

import os
import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

import pytest

from repro.apps.base import ProblemSize


#: Sizes swept by the per-application benchmarks.  LARGE is excluded by
#: default to keep the suite's wall-clock time reasonable; pass
#: ``--full-sizes`` to sweep all three classes as the paper does.
def pytest_addoption(parser):
    parser.addoption(
        "--full-sizes",
        action="store_true",
        default=False,
        help="sweep small/medium/large instead of small/medium",
    )


@pytest.fixture(scope="session")
def bench_dir(tmp_path_factory) -> Path:
    """Where the throughput benchmarks write their ``BENCH_*.json`` records:
    ``$OMPDATAPERF_BENCH_DIR`` when set (created if missing), otherwise a
    fresh temporary directory, so a test run never writes into the tree."""
    configured = os.environ.get("OMPDATAPERF_BENCH_DIR")
    if not configured:
        return tmp_path_factory.mktemp("bench-records")
    path = Path(configured)
    path.mkdir(parents=True, exist_ok=True)
    return path


@pytest.fixture(scope="session")
def sweep_sizes(request):
    if request.config.getoption("--full-sizes"):
        return [ProblemSize.SMALL, ProblemSize.MEDIUM, ProblemSize.LARGE]
    return [ProblemSize.SMALL, ProblemSize.MEDIUM]
