"""Bench: end-to-end Eyeriss FIT under the protection stack vs ISO 26262.

Shape claims checked: the unprotected accelerator exceeds its FIT
allowance; every protection stage monotonically reduces FIT; the full
stack (SED + SLH + buffer ECC) restores compliance.
"""

from repro.experiments import e2e_protected_fit as exp

from bench_common import BENCH_CFG


def test_bench_e2e_protected_fit():
    result = exp.run(BENCH_CFG)
    print("\n" + exp.render(result))
    budget = result["accel_budget"]
    for network, d in result["networks"].items():
        assert d["unprotected"]["total"] > budget, network
        assert d["sed"]["total"] <= d["unprotected"]["total"] + 1e-12
        assert d["full"]["total"] <= d["sed_slh"]["total"] + 1e-12
        assert d["full"]["total"] < budget, network
