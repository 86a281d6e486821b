"""repro-campaign CLI."""

import json

import pytest

from repro.core.cli import main


class TestCampaignCli:
    def test_basic_run(self, capsys):
        assert main(["--network", "ConvNet", "--trials", "20", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "SDC-1" in out and "masked before output" in out

    def test_site_breakdown_printed_for_datapath(self, capsys):
        main(["--network", "ConvNet", "--trials", "25", "--seed", "1"])
        out = capsys.readouterr().out
        assert "accumulator" in out or "psum" in out

    def test_detection_summary(self, capsys):
        main(["--network", "ConvNet", "--trials", "20", "--seed", "1", "--detect", "dmr"])
        out = capsys.readouterr().out
        assert "detection (dmr)" in out

    def test_json_output(self, tmp_path, capsys):
        out_file = tmp_path / "c.json"
        main(["--network", "ConvNet", "--trials", "15", "--seed", "2", "--out", str(out_file)])
        data = json.loads(out_file.read_text())
        assert data["n_trials"] == 15
        assert data["spec"]["network"] == "ConvNet"

    def test_buffer_target(self, capsys):
        assert main([
            "--network", "ConvNet", "--dtype", "16b_rb10",
            "--target", "layer_weight", "--trials", "15", "--seed", "3",
        ]) == 0

    def test_proteus_flag(self, capsys):
        assert main([
            "--network", "ConvNet", "--dtype", "32b_rb10",
            "--target", "next_layer", "--storage-dtype", "16b_rb10",
            "--trials", "10", "--seed", "4",
        ]) == 0

    def test_invalid_combination_rejected(self, capsys):
        # burst 0 is rejected by the spec validation, surfaced as exit 2.
        assert main(["--network", "ConvNet", "--trials", "5", "--burst", "0"]) == 2
        assert "invalid campaign" in capsys.readouterr().err

    def test_negative_jobs_rejected(self, capsys):
        assert main(["--network", "ConvNet", "--trials", "5", "--jobs", "-1"]) == 2
        captured = capsys.readouterr()
        assert "jobs must be >= 0" in captured.err and captured.out == ""

    def test_unknown_network_rejected(self):
        with pytest.raises(SystemExit):
            main(["--network", "ResNet"])
