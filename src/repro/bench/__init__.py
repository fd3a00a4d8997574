"""Benchmark harness: workloads, runners and paper-style reporting.

One module per concern:

* :mod:`repro.bench.workloads` -- invariant sets, rule-update streams,
  error injection and fault scenes for each dataset;
* :mod:`repro.bench.runners` -- drive the centralized baselines over a
  workload and collect timings (Tulkun runs through
  :class:`repro.core.Deployment` on either backend);
* :mod:`repro.bench.reporting` -- print the rows/series each paper
  figure reports (acceleration ratios, <10 ms percentages, quantiles,
  CDFs).
"""

from repro.bench.workloads import (
    Workload,
    build_workload,
    random_rule_updates,
    random_fault_scenes,
)
from repro.bench.runners import (
    BaselineTiming,
    run_baseline_burst,
    run_baseline_incremental,
)

__all__ = [
    "Workload",
    "build_workload",
    "random_rule_updates",
    "random_fault_scenes",
    "BaselineTiming",
    "run_baseline_burst",
    "run_baseline_incremental",
]
