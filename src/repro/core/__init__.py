"""The paper's core contribution: fault injection, SDC/FIT analysis and
the two protection techniques (SED, SLH)."""

from repro.core.campaign import CampaignResult, CampaignSpec, TrialRecord, run_campaign
from repro.core.detectors import DetectorQuality, SymptomDetector, learn_detector
from repro.core.fault import (
    DATAPATH_LATCHES,
    BufferFault,
    DatapathFault,
    sample_buffer_fault,
    sample_datapath_fault,
)
from repro.core.fit import (
    ISO26262_SOC_FIT_BUDGET,
    R_RAW_FIT_PER_MBIT_16NM,
    ComponentFit,
    buffer_fit,
    datapath_fit,
    eyeriss_total_fit,
    fit_rate,
)
from repro.core.hardening import (
    HARDENING_TECHNIQUES,
    HardenedLatch,
    HardeningPlan,
    coverage_curve,
    fit_beta,
    optimize_hardening,
    single_technique_overhead,
)
from repro.core.injector import InjectionResult, inject_buffer, inject_datapath, replay_chain
from repro.core.outcome import SDC_CLASSES, Outcome, classify_outcome
from repro.core.planner import (
    PlannerInputs,
    ProtectionPlan,
    plan_protection,
    sec_ded_overhead,
)
from repro.core.stats import RateEstimate, combine_counts, wilson_interval

__all__ = [
    "CampaignResult",
    "CampaignSpec",
    "TrialRecord",
    "run_campaign",
    "DetectorQuality",
    "SymptomDetector",
    "learn_detector",
    "DATAPATH_LATCHES",
    "BufferFault",
    "DatapathFault",
    "sample_buffer_fault",
    "sample_datapath_fault",
    "ISO26262_SOC_FIT_BUDGET",
    "R_RAW_FIT_PER_MBIT_16NM",
    "ComponentFit",
    "buffer_fit",
    "datapath_fit",
    "eyeriss_total_fit",
    "fit_rate",
    "HARDENING_TECHNIQUES",
    "HardenedLatch",
    "HardeningPlan",
    "coverage_curve",
    "fit_beta",
    "optimize_hardening",
    "single_technique_overhead",
    "InjectionResult",
    "inject_buffer",
    "inject_datapath",
    "replay_chain",
    "SDC_CLASSES",
    "Outcome",
    "classify_outcome",
    "PlannerInputs",
    "ProtectionPlan",
    "plan_protection",
    "sec_ded_overhead",
    "RateEstimate",
    "combine_counts",
    "wilson_interval",
]
