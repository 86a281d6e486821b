"""Experiment harness: every table/figure module runs and yields the
paper-shaped structure (tiny trial budgets; shape checks only)."""

import pytest

from repro.experiments.common import ExperimentConfig
from repro.experiments.runner import EXPERIMENTS, main, run_experiment

CFG = ExperimentConfig(trials=30, scale="reduced", seed=1)


class TestStaticExperiments:
    def test_table1(self):
        from repro.experiments import table1_reuse

        result = table1_reuse.run(CFG)
        assert len(result["taxonomy"]) == 4
        assert "Eyeriss" in table1_reuse.render(result)

    def test_table2(self):
        from repro.experiments import table2_networks

        result = table2_networks.run(CFG)
        names = [d["network"] for d in result["networks"]]
        assert names == ["ConvNet", "AlexNet", "CaffeNet", "NiN"]

    def test_table3(self):
        from repro.experiments import table3_dtypes

        result = table3_dtypes.run(CFG)
        assert len(result["dtypes"]) == 6
        assert "32b_rb26" in table3_dtypes.render(result)

    def test_table7(self):
        from repro.experiments import table7_eyeriss_scaling

        result = table7_eyeriss_scaling.run(CFG)
        out = table7_eyeriss_scaling.render(result)
        assert "1344" in out and "784KB" in out


class TestCampaignExperiments:
    def test_fig3_structure(self):
        from repro.experiments import fig3_datatype_sdc

        result = fig3_datatype_sdc.run(CFG)
        assert set(result["rates"]) == {"ConvNet", "AlexNet", "CaffeNet", "NiN"}
        nin = result["rates"]["NiN"]["FLOAT16"]
        assert nin["sdc10"][2] == 0  # no confidence classes for NiN
        assert "n/a" in fig3_datatype_sdc.render(result)

    def test_fig4_only_high_bits_sensitive(self):
        from repro.experiments import fig4_bit_position

        rates = fig4_bit_position.per_bit_rates("CaffeNet", "32b_rb10", CFG, trials_per_bit=12)
        assert set(rates) == set(range(32))
        low_bits = sum(rates[b][0] for b in range(10))
        assert low_bits == 0.0  # fraction bits never cause SDC-1

    def test_fig5(self):
        from repro.experiments import fig5_value_deviation

        result = fig5_value_deviation.run(ExperimentConfig(trials=60, seed=1))
        assert 0.0 <= result["sdc_out_of_range"] <= 1.0
        assert "fault-free ACT range" in fig5_value_deviation.render(result)

    def test_table4_covers_all_blocks(self):
        from repro.experiments import table4_value_ranges

        result = table4_value_ranges.run(CFG)
        assert len(result["ranges"]["NiN"]) == 12
        assert len(result["ranges"]["ConvNet"]) == 5

    def test_fig6(self):
        from repro.experiments import fig6_layer_sdc

        cfg = ExperimentConfig(trials=40, seed=1)
        result = fig6_layer_sdc.run(cfg)
        assert set(result["layers"]["AlexNet"]) == set(range(1, 9))
        assert result["layers"]["AlexNet"][6][3] == "FC"

    def test_fig7_lrn_attenuation(self):
        from repro.experiments import fig7_euclidean

        result = fig7_euclidean.run(ExperimentConfig(trials=60, seed=1))
        alex = list(result["distances"]["AlexNet"].values())
        nin = list(result["distances"]["NiN"].values())
        # AlexNet: sharp drop after layer-1 LRN; NiN: flat (no LRN).
        assert alex[0] > 100 * alex[1]
        assert nin[1] > 0.5 * nin[0]

    def test_table5(self):
        from repro.experiments import table5_bitwise_sdc

        result = table5_bitwise_sdc.run(ExperimentConfig(trials=80, seed=1))
        assert set(result["propagation"]) == {1, 2, 3, 4, 5}
        assert 0.0 <= result["avg_masked"] <= 1.0

    def test_table6_fit_scales_with_sdc(self):
        from repro.experiments import table6_datapath_fit

        result = table6_datapath_fit.run(ExperimentConfig(trials=60, seed=1))
        for (_, _), (fit, sdc, _) in result["fit"].items():
            if sdc == 0:
                assert fit == 0.0
            else:
                assert fit > 0.0

    def test_table8(self):
        from repro.experiments import table8_buffer_fit

        result = table8_buffer_fit.run(ExperimentConfig(trials=25, seed=1))
        comps = result["buffers"]["ConvNet"]
        assert set(comps) == {"Global Buffer", "Filter SRAM", "Img REG", "PSum REG"}

    def test_fig8(self):
        from repro.experiments import fig8_sed

        result = fig8_sed.run(ExperimentConfig(trials=64, seed=1))
        for d in result["networks"].values():
            assert 0.0 <= d["precision"] <= 1.0
            assert 0.0 <= d["recall"] <= 1.0

    def test_fig9(self):
        from repro.experiments import fig9_slh

        result = fig9_slh.run(ExperimentConfig(trials=64, seed=1))
        for data in result["dtypes"].values():
            fraction, reduction = data["coverage"]
            assert reduction[0] == 0.0 and reduction[-1] in (0.0, 1.0)
            assert len(data["overhead_curves"]["Multi"]) == 5

    def test_e2e_protection_monotone(self):
        from repro.experiments import e2e_protected_fit

        result = e2e_protected_fit.run(ExperimentConfig(trials=40, seed=1))
        for d in result["networks"].values():
            assert d["sed"]["total"] <= d["unprotected"]["total"] + 1e-12
            assert d["sed_slh"]["total"] <= d["sed"]["total"] + 1e-12
            assert d["full"]["total"] <= d["sed_slh"]["total"] + 1e-12


class TestExperimentConfig:
    @pytest.mark.parametrize("name, value", [
        ("chunk", 8), ("checkpoint", "ck.jsonl"), ("checkpoint_every", 8),
        ("run_log", "run.runlog.jsonl"), ("trace_path", "run.trace.jsonl"),
    ])
    def test_path_and_tuning_run_options_rejected(self, name, value):
        # One path shared by every campaign of an experiment would make
        # each campaign overwrite the previous one's checkpoint.
        from repro.core.campaign import RunOptions

        with pytest.raises(ValueError, match=name):
            ExperimentConfig(run=RunOptions(**{name: value}))

    def test_settable_run_options_accepted(self):
        from repro.core.campaign import RunOptions

        ExperimentConfig(run=RunOptions(
            jobs=2, batch=4, resume=True, trial_timeout=5.0,
            max_retries=1, max_error_frac=0.5, spans=True, progress_every=1.0,
        ))

    def test_each_campaign_gets_its_own_paths(self, tmp_path):
        from repro.core.campaign import CampaignSpec
        from repro.core.checkpoint import campaign_fingerprint
        from repro.experiments.common import campaign

        cfg = ExperimentConfig(trials=8, checkpoint_dir=str(tmp_path / "ck"),
                               obs_dir=str(tmp_path / "obs"))
        specs = [CampaignSpec(network="ConvNet", dtype=dtype, n_trials=8, seed=4177)
                 for dtype in ("FLOAT16", "16b_rb10")]
        for spec in specs:
            campaign(spec, cfg)
        for spec in specs:
            fingerprint = campaign_fingerprint(spec)
            assert (tmp_path / "ck" / f"{fingerprint}.jsonl").is_file()
            assert (tmp_path / "obs" / f"{fingerprint}.runlog.jsonl").is_file()
        assert len(list((tmp_path / "obs").iterdir())) == len(specs)


class TestRunner:
    def test_registry_complete(self):
        assert set(EXPERIMENTS) == {
            "table1", "table2", "table3", "table4", "table5", "table6",
            "table7", "table8", "fig3", "fig4", "fig5", "fig6", "fig7",
            "fig8", "fig9", "e2e", "proteus", "dmr", "mapping", "lrn", "depth",
            "propagation",
        }

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            run_experiment("fig99", CFG)

    def test_cli_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig3" in out and "e2e" in out

    def test_cli_runs_static_experiment(self, capsys):
        assert main(["table3", "--trials", "10"]) == 0
        assert "DOUBLE" in capsys.readouterr().out

    def test_cli_unknown(self, capsys):
        assert main(["nope"]) == 2

    @pytest.mark.parametrize("argv", [
        ["fig3", "--jobs", "-1"],
        ["fig3", "--trials", "0"],
        ["all", "--jobs", "-1"],
        ["fig3", "--trials", "8", "--max-error-frac", "-0.1"],
        ["all", "--batch", "0"],
    ])
    def test_cli_usage_error_before_any_work(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # no experiment ran, not even table1
        assert "invalid configuration" in captured.err
