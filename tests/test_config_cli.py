"""Config parsing and the command line front end."""

import json
from pathlib import Path

import pytest
import yaml
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from pacersim.cli import main
from pacersim.config import parse_config
from pacersim.errors import ParseError, ValidationError

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
BUNDLED = ["back_to_back.yaml", "ptp_defaults.yaml", "sweep_default.yaml"]


def bundled(name):
    return yaml.safe_load(CONFIGS.joinpath(name).read_text())


def replaced(doc, path, value):
    """A copy of ``doc`` with the value at ``path`` (keys and indices) set."""
    doc = list(doc) if isinstance(doc, list) else dict(doc)
    key, rest = path[0], path[1:]
    doc[key] = replaced(doc[key], rest, value) if rest else value
    return doc


def value_paths(doc, path=()):
    """The path of every value in ``doc``, at any depth."""
    items = enumerate(doc) if isinstance(doc, list) else \
        doc.items() if isinstance(doc, dict) else ()
    for key, value in items:
        yield path + (key,)
        yield from value_paths(value, path + (key,))


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12)


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

    @pytest.mark.parametrize("name", BUNDLED)
    def test_json_document_parses_as_its_yaml(self, name):
        text = CONFIGS.joinpath(name).read_text()
        as_json = json.dumps(yaml.safe_load(text), indent=1)
        assert parse_config(as_json) == parse_config(text)

    def test_yaml_flow_mapping_still_yaml(self):
        kind, sc = parse_config("{kind: scenario, duration: 1000, "
                                "ring: {num_slots: 4, slot_size: 300}}")
        assert (kind, sc.duration, sc.ring.num_slots) == ("scenario", 1000, 4)

    @given(data=st.data(), as_json=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_any_replaced_value_parses_or_is_named(self, data, as_json):
        doc = bundled(data.draw(st.sampled_from(BUNDLED)))
        path = data.draw(st.sampled_from(list(value_paths(doc))))
        doc = replaced(doc, path, data.draw(json_values))
        text = json.dumps(doc) if as_json else yaml.safe_dump(doc)
        try:
            parse_config(text)
        except (ParseError, ValidationError):
            pass

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
        "sync_interval: 1",
        "sync_interval: 29999",
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

    def test_ptp_study_shortest_sync_interval_runs(self, tmp_path):
        cfg = tmp_path / "ptp.yaml"
        cfg.write_text("kind: ptp\nsync_interval: 30000\nrounds: 20\n")
        res = self.run_cli("ptp-study", str(cfg), "--out-dir", str(tmp_path))
        assert res.exit_code == 0, res.output
        assert (tmp_path / "ptp_trace.csv").exists()

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

    @pytest.mark.parametrize("command, name, path, value", [
        ("simulate", "back_to_back.yaml", ("ring", "num_slots"), 0),
        ("simulate", "back_to_back.yaml", ("ring", "num_slots"), 8.0),
        ("simulate", "back_to_back.yaml", ("duration",), "100"),
        ("simulate", "back_to_back.yaml", ("flows",), 3),
        ("simulate", "back_to_back.yaml", ("ownership",), {"x": 1}),
        ("simulate", "back_to_back.yaml", ("mode",), 5),
        ("ptp-study", "ptp_defaults.yaml", ("rounds",), "5"),
        ("ptp-study", "ptp_defaults.yaml", ("sync_interval",), "100"),
        ("ptp-study", "ptp_defaults.yaml", ("initial_freq_offset_ppm",), float("nan")),
        ("simulate", "back_to_back.yaml", ("flows", 0, "payload_len"), 0),
        ("simulate", "back_to_back.yaml", ("release_delta",), -5),
        ("sweep-schedulability", "sweep_default.yaml", ("utilizations",), ["a"]),
        ("simulate", "back_to_back.yaml", ("be_loads", 0, "payload_len"), 0),
        ("sweep-schedulability", "sweep_default.yaml", ("num_slots",), 0),
        ("ptp-study", "ptp_defaults.yaml", ("rng_seed",), -1),
        # Negative delays would deliver frames before they are sent.
        ("simulate", "back_to_back.yaml", ("propagation",), -5),
        ("simulate", "back_to_back.yaml", ("bridges",), [{"forward_delay": -1000000}]),
        # 64 B at 10 Gb/s is 51.2 ns, not a whole number of nanoseconds.
        ("simulate", "back_to_back.yaml", ("ring",),
         {"num_slots": 8, "slot_size": 64, "line_rate": 10_000_000_000}),
        ("simulate", "back_to_back.yaml", ("ownership",), {"9": 1}),
        ("simulate", "back_to_back.yaml", ("flows",),
         [{"flow_id": 1, "traffic_class": 1, "period": 19200, "payload_len": 64},
          {"flow_id": 1, "traffic_class": 1, "period": 19200, "phase": 9600,
           "payload_len": 64}]),
    ])
    def test_malformed_config_exit_2(self, tmp_path, command, name, path, value):
        cfg = tmp_path / "bad.json"
        # JSON, so NaN reaches the parser as the json module reads it.
        cfg.write_text(json.dumps(replaced(bundled(name), path, value)))
        out = tmp_path / "out"
        dest = ["--out", str(out / "sweep.csv")] if command.startswith("sweep") \
            else ["--out-dir", str(out)]
        res = self.run_cli(command, str(cfg), *dest)
        assert res.exit_code == 2, res.output
        assert "error:" in res.output
        assert isinstance(res.exception, SystemExit)
        assert not out.exists()

    @pytest.mark.parametrize("command, name, text", [
        ("schedule", "bogus.txt", "bogus 1 2\n"),
        ("simulate", "bad.yaml", "ring: [1,\n"),
    ])
    def test_parse_error_location_printed_once(self, tmp_path, command, name, text):
        src = tmp_path / name
        src.write_text(text)
        res = self.run_cli(command, str(src))
        assert res.exit_code == 2, res.output
        error = [line for line in res.output.splitlines() if line.startswith("error:")]
        assert len(error) == 1 and error[0].count("(line ") == 1, res.output

    @pytest.mark.parametrize("flow", ["flow 1 inf 1", "flow 1 10 1e400", "flow 1 -inf 1"])
    def test_schedule_overflowing_number_exit_2(self, tmp_path, flow):
        src = tmp_path / "inf.txt"
        src.write_text(f"ring 4 10000\n{flow}\n")
        res = self.run_cli("schedule", str(src))
        assert res.exit_code == 2, res.output
        assert "(line 2, column 1)" in res.output
        assert isinstance(res.exception, SystemExit)

    @pytest.mark.parametrize("horizon", ["0", "-40000"])
    def test_schedule_nonpositive_horizon_exit_2(self, tmp_path, horizon):
        src = tmp_path / "inst.txt"
        src.write_text(f"ring 4 10000 {horizon}\nflow 1 10 1\n")
        res = self.run_cli("schedule", str(src))
        assert res.exit_code == 2, res.output
        assert "error:" in res.output and "horizon" in res.output
        assert isinstance(res.exception, SystemExit)

    @pytest.mark.parametrize("how", ["flag", "config"])
    def test_sweep_jobs_below_one_exit_2(self, tmp_path, how):
        cfg = tmp_path / "sweep.yaml"
        cfg.write_text("kind: sweep\nutilizations: [0.05]\ninstances_per_point: 1\n"
                       + ("jobs: 0\n" if how == "config" else ""))
        out = tmp_path / "sweep.csv"
        flag = ["--jobs", "0"] if how == "flag" else []
        res = self.run_cli("sweep-schedulability", str(cfg), "--out", str(out), *flag)
        assert res.exit_code == 2, res.output
        assert "error:" in res.output and "jobs" in res.output
        assert not out.exists()

    def test_unknown_flag_exit_2(self):
        res = self.run_cli("simulate", "--frobnicate")
        assert res.exit_code == 2
