"""Config parsing and the command line front end."""

import json
from pathlib import Path

import pytest
import yaml
from click.testing import CliRunner

from pacersim.cli import main
from pacersim.config import parse_config
from pacersim.errors import ParseError, ValidationError

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


class TestParseConfig:
    def test_minimal_scenario(self):
        kind, sc = parse_config(CONFIGS.joinpath("back_to_back.yaml").read_text())
        assert kind == "scenario"
        assert sc.ring.num_slots == 8
        assert len(sc.flows) == 1
        assert sc.bridges == []  # back to back: sender and receiver only
        assert sc.release_delta == 19200

    def test_defaults_applied(self):
        _, sc = parse_config(
            "kind: scenario\nduration: 1000\nring: {num_slots: 4, slot_size: 300}\n")
        assert sc.release_delta == 50_000
        assert sc.ring.wire_overhead == 0
        assert sc.ring.batch_size == 1

    def test_ptp_config(self):
        kind, (cfg, model) = parse_config(
            CONFIGS.joinpath("ptp_defaults.yaml").read_text())
        assert kind == "ptp"
        assert cfg.sync_interval == 100_000_000
        assert cfg.filter_window == 10
        assert model.g_master == 2400

    def test_sweep_config(self):
        kind, cfg = parse_config(CONFIGS.joinpath("sweep_default.yaml").read_text())
        assert kind == "sweep"
        assert cfg.instances_per_point == 64
        assert len(cfg.utilizations) == 10

    def test_missing_key_names_it(self):
        with pytest.raises(ValidationError, match="duration"):
            parse_config("kind: scenario\nring: {num_slots: 4, slot_size: 300}\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError, match="oops"):
            parse_config("kind: scenario\nduration: 1\noops: 2\n"
                         "ring: {num_slots: 4, slot_size: 300}\n")

    @pytest.mark.parametrize("name", ["back_to_back.yaml", "ptp_defaults.yaml",
                                      "sweep_default.yaml"])
    def test_json_document_parses_as_its_yaml(self, name):
        text = CONFIGS.joinpath(name).read_text()
        as_json = json.dumps(yaml.safe_load(text), indent=1)
        assert parse_config(as_json) == parse_config(text)

    def test_yaml_flow_mapping_still_yaml(self):
        kind, sc = parse_config("{kind: scenario, duration: 1000, "
                                "ring: {num_slots: 4, slot_size: 300}}")
        assert (kind, sc.duration, sc.ring.num_slots) == ("scenario", 1000, 4)

    def test_yaml_error_carries_location(self):
        with pytest.raises(ParseError) as ei:
            parse_config("kind: scenario\n  bad indent: [\n")
        assert ei.value.line is not None


class TestCli:
    def run_cli(self, *args):
        return CliRunner().invoke(main, list(args))

    def test_simulate_writes_csvs(self, tmp_path):
        res = self.run_cli("simulate", str(CONFIGS / "back_to_back.yaml"),
                           "--out-dir", str(tmp_path))
        assert res.exit_code == 0, res.output
        assert (tmp_path / "metrics.csv").exists()
        assert (tmp_path / "summary.csv").exists()

    def test_simulate_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            res = self.run_cli("simulate", str(CONFIGS / "back_to_back.yaml"),
                               "--out-dir", str(out))
            assert res.exit_code == 0
        assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()
        assert (a / "summary.csv").read_bytes() == (b / "summary.csv").read_bytes()

    def test_schedule_feasible(self, tmp_path):
        out = tmp_path / "solution.txt"
        res = self.run_cli("schedule", str(CONFIGS / "schedule_small.txt"),
                           "--out", str(out))
        assert res.exit_code == 0, res.output
        assert "status=feasible" in res.output
        assert out.read_text().startswith("partition")

    def test_schedule_infeasible_exit_1(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("ring 1 10000\nflow 1 10 0\nflow 1 10 0\n")
        res = self.run_cli("schedule", str(bad))
        assert res.exit_code == 1
        assert "infeasible" in res.output

    def test_ptp_study(self, tmp_path):
        cfg = tmp_path / "ptp.yaml"
        cfg.write_text(CONFIGS.joinpath("ptp_defaults.yaml").read_text()
                       .replace("rounds: 1000", "rounds: 50"))
        res = self.run_cli("ptp-study", str(cfg), "--out-dir", str(tmp_path))
        assert res.exit_code == 0, res.output
        assert (tmp_path / "ptp_trace.csv").exists()

    def test_ptp_study_diverged_exit_1(self, tmp_path):
        cfg = tmp_path / "ptp.yaml"
        cfg.write_text(CONFIGS.joinpath("ptp_defaults.yaml").read_text()
                       .replace("sync_interval: 100000000", "sync_interval: 1000000"))
        res = self.run_cli("ptp-study", str(cfg), "--out-dir", str(tmp_path),
                           "--unfiltered")
        assert res.exit_code == 1, res.output
        assert "error: servo diverged in round" in res.output
        assert res.exception is None or isinstance(res.exception, SystemExit)
        assert not (tmp_path / "ptp_trace.csv").exists()

    @pytest.mark.parametrize("override", [
        "sync_interval: 0",
        "filter_window: 0",
        "error_model: {g_master: -1}",
        "rounds: 0",
        "rounds: -3",
    ])
    def test_ptp_study_bad_value_exit_2(self, tmp_path, override):
        cfg = tmp_path / "ptp.yaml"
        cfg.write_text(f"kind: ptp\n{override}\n")
        res = self.run_cli("ptp-study", str(cfg), "--out-dir", str(tmp_path))
        assert res.exit_code == 2, res.output
        assert "error:" in res.output
        assert isinstance(res.exception, SystemExit)
        assert not (tmp_path / "ptp_trace.csv").exists()

    def test_sweep(self, tmp_path):
        cfg = tmp_path / "sweep.yaml"
        cfg.write_text("kind: sweep\nutilizations: [0.05, 0.10]\n"
                       "instances_per_point: 4\n")
        out = tmp_path / "sweep.csv"
        res = self.run_cli("sweep-schedulability", str(cfg), "--out", str(out))
        assert res.exit_code == 0, res.output
        lines = out.read_text().splitlines()
        assert lines[0] == "utilization,feasible,infeasible,timeout,fraction"
        assert len(lines) == 3

    def test_bad_config_exit_2(self, tmp_path):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text("kind: scenario\nring: {num_slots: 4, slot_size: 300}\n")
        res = self.run_cli("simulate", str(cfg))
        assert res.exit_code == 2

    def test_unknown_flag_exit_2(self):
        res = self.run_cli("simulate", "--frobnicate")
        assert res.exit_code == 2
