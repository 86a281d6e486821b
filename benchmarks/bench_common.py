"""Shared benchmark configuration.

`TRIALS` balances statistical resolution against wall-clock time; specs
are shared across benchmarks (e.g. Figure 3's campaigns feed Table 6)
so the in-process campaign memo removes duplicate work.
"""

from repro.experiments.common import ExperimentConfig

__all__ = ["TRIALS", "BENCH_CFG"]

#: Injections per campaign for benchmark runs.
TRIALS = 250

#: Standard benchmark configuration (reduced-scale networks, seed 0).
BENCH_CFG = ExperimentConfig(trials=TRIALS, scale="reduced", seed=0)
