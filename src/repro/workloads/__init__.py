"""Synthetic SPEC-calibrated workloads, branch-outcome processes, and the
Figure 6 kernel."""

from .branch_process import (
    BranchSiteSpec,
    PATTERN_PERIOD,
    empirical_bias,
    generate_outcomes,
)
from .kernels import FIG6_SITE, omnetpp_carray_add
from .mcf_kernel import MCF_SITE, mcf_pointer_chase
from .spec import (
    BENCHMARKS,
    BenchmarkDef,
    PaperRow,
    SUITES,
    site_population,
    spec_benchmark,
    suite_benchmarks,
)
from .synthetic import (
    OUTCOME_BASE,
    PAYLOAD_BASE,
    RESULT_BASE,
    WorkloadSpec,
    build_workload,
    dynamic_instructions_per_iteration,
    release_chase_chains,
)

__all__ = [
    "BENCHMARKS",
    "BenchmarkDef",
    "BranchSiteSpec",
    "FIG6_SITE",
    "MCF_SITE",
    "OUTCOME_BASE",
    "PATTERN_PERIOD",
    "PAYLOAD_BASE",
    "PaperRow",
    "RESULT_BASE",
    "SUITES",
    "WorkloadSpec",
    "build_workload",
    "dynamic_instructions_per_iteration",
    "empirical_bias",
    "generate_outcomes",
    "mcf_pointer_chase",
    "omnetpp_carray_add",
    "release_chase_chains",
    "site_population",
    "spec_benchmark",
    "suite_benchmarks",
]
