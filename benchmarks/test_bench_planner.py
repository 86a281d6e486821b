"""Bench: the protection planner solving the ISO 26262 budget.

Measures the end-to-end cost of: datapath + buffer campaigns, per-bit
sensitivity profile, and the plan enumeration — then checks the
recommended stack actually complies and costs less than naive full
protection (TMR everywhere + ECC everywhere).
"""

import numpy as np

from repro.accel import EYERISS_16NM
from repro.core.campaign import CampaignSpec, run_campaign
from repro.core.planner import PlannerInputs, plan_protection
from repro.experiments.table8_buffer_fit import COMPONENT_SCOPES
from repro.zoo import get_network

from bench_common import TRIALS

BUDGET = 0.1  # accelerator allowance (1% of the 10-FIT SoC budget)


def _measure():
    network = "ConvNet"
    dtype = "16b_rb10"
    dp = run_campaign(
        CampaignSpec(network=network, dtype=dtype, n_trials=TRIALS, seed=93,
                     with_detection=True)
    )
    buffer_sdc = {}
    for component, scope in COMPONENT_SCOPES.items():
        res = run_campaign(
            CampaignSpec(network=network, dtype=dtype, target=scope,
                         n_trials=TRIALS, seed=94)
        )
        buffer_sdc[component] = res.sdc_rate().p
    q = dp.detection_quality()
    per_bit = np.array([dp.rate_by_bit().get(b, None) for b in range(16)])
    per_bit = np.array([r.p if r is not None else 0.0 for r in per_bit])
    net = get_network(network)
    acts = sum(int(np.prod(net.shapes[i + 1])) for i in net.block_output_indices())
    inputs = PlannerInputs(
        config=EYERISS_16NM,
        datapath_sdc=dp.sdc_rate().p,
        buffer_sdc=buffer_sdc,
        sed_recall=q.recall if q.total_sdc else 0.5,
        per_bit_fit=per_bit,
        act_elements_per_inference=acts,
        macs_per_inference=net.total_macs(),
    )
    return plan_protection(inputs, fit_budget=BUDGET)


def test_bench_planner():
    plans = _measure()
    print()
    for plan in plans[:4]:
        print(plan.describe())
    best = plans[0]
    assert best.total_fit <= BUDGET
    full = next(
        p for p in plans
        if p.use_sed and p.slh_target == max(q.slh_target for q in plans)
        and len(p.ecc_components) == 4
    )
    assert best.area_overhead <= full.area_overhead + 1e-9
