"""YAML configuration loading for the command line front end.

A config file is a single YAML document with a ``kind`` key selecting what
it describes: ``scenario`` (a network simulation), ``ptp`` (a clock
synchronization study) or ``sweep`` (a schedulability sweep). Unknown keys
are rejected so typos fail loudly rather than falling back to defaults.

A document that is a JSON object is read with the ``json`` module, as YAML
1.2 reads JSON, and PyYAML is imported only for other documents: it is far
slower and larger, and its YAML 1.1 rules read some JSON numbers, such as
``1e5``, as strings.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .engine import BeLoad, Bridge, FlowDef, GateWindow, Scenario
from .errors import ParseError, ValidationError
from .insertion import InsertMode
from .ptp import PtpConfig, PtpErrorModel
from .ring import RingConfig


@dataclass
class SweepConfig:
    utilizations: list
    instances_per_point: int = 64
    seed: int = 0
    timeout: float = 10.0
    jobs: int = 1
    num_slots: int = 32
    delta: int = 10_000


def _require(mapping: dict, key, where: str):
    if key not in mapping:
        raise ValidationError(f"{where}: missing required key {key!r}")
    return mapping[key]


def _check_keys(mapping: dict, allowed, where: str):
    extra = set(mapping) - set(allowed)
    if extra:
        raise ValidationError(f"{where}: unknown key(s) {sorted(extra)}")


def _load_yaml(text: str):
    if text.lstrip().startswith("{"):
        try:
            return json.loads(text)  # a JSON object: always a dict
        except ValueError:
            pass  # e.g. a YAML flow mapping
    import yaml

    try:
        doc = yaml.safe_load(text)
    except yaml.MarkedYAMLError as exc:
        mark = exc.problem_mark
        raise ParseError(
            exc.problem or "invalid YAML",
            line=mark.line + 1 if mark else None,
            column=mark.column + 1 if mark else None,
        )
    except yaml.YAMLError as exc:
        raise ParseError(str(exc))
    if not isinstance(doc, dict):
        raise ParseError("config must be a YAML mapping")
    return doc


def _parse_ring(d: dict) -> RingConfig:
    _check_keys(d, ["num_slots", "slot_size", "batch_size", "polling_period",
                    "polling_overhead", "line_rate", "wire_overhead"], "ring")
    return RingConfig(
        num_slots=_require(d, "num_slots", "ring"),
        slot_size=_require(d, "slot_size", "ring"),
        batch_size=d.get("batch_size", 1),
        polling_period=d.get("polling_period", 0),
        polling_overhead=d.get("polling_overhead", 0),
        line_rate=d.get("line_rate", 1_000_000_000),
        wire_overhead=d.get("wire_overhead", 0),
    )


def _parse_scenario(doc: dict) -> Scenario:
    _check_keys(doc, ["kind", "ring", "duration", "flows", "be_loads", "bridges",
                      "propagation", "mode", "release_delta", "ownership",
                      "rng_seed"], "scenario")
    ring = _parse_ring(_require(doc, "ring", "scenario"))
    flows = []
    for i, fd in enumerate(doc.get("flows", [])):
        where = f"flows[{i}]"
        _check_keys(fd, ["flow_id", "traffic_class", "period", "phase",
                         "payload_len", "count", "late_by"], where)
        flows.append(FlowDef(
            flow_id=fd.get("flow_id", i + 1),
            traffic_class=_require(fd, "traffic_class", where),
            period=_require(fd, "period", where),
            phase=fd.get("phase", 0),
            payload_len=_require(fd, "payload_len", where),
            count=fd.get("count"),
            late_by={int(k): v for k, v in (fd.get("late_by") or {}).items()},
        ))
    be_loads = []
    for i, bd in enumerate(doc.get("be_loads", [])):
        _check_keys(bd, ["traffic_class", "payload_len"], f"be_loads[{i}]")
        be_loads.append(BeLoad(
            traffic_class=bd.get("traffic_class", 0),
            payload_len=bd.get("payload_len", 64),
        ))
    bridges = []
    for i, brd in enumerate(doc.get("bridges", [])):
        where = f"bridges[{i}]"
        _check_keys(brd, ["name", "forward_delay", "gates"], where)
        gates = {}
        for fid, g in (brd.get("gates") or {}).items():
            _check_keys(g, ["offset", "width", "cycle"], f"{where}.gates[{fid}]")
            gates[int(fid)] = GateWindow(
                offset=_require(g, "offset", where),
                width=_require(g, "width", where),
                cycle=_require(g, "cycle", where),
            )
        bridges.append(Bridge(
            name=brd.get("name", f"bridge{i}"),
            forward_delay=brd.get("forward_delay", 0),
            gates=gates,
        ))
    mode_name = doc.get("mode", "strict")
    try:
        mode = InsertMode[mode_name.upper()]
    except KeyError:
        raise ValidationError(f"scenario: mode must be strict or relaxed, got {mode_name!r}")
    ownership = doc.get("ownership")
    if ownership is not None:
        ownership = {int(k): v for k, v in ownership.items()}
    return Scenario(
        ring=ring,
        duration=_require(doc, "duration", "scenario"),
        flows=flows,
        be_loads=be_loads,
        bridges=bridges,
        propagation=doc.get("propagation", 0),
        mode=mode,
        release_delta=doc.get("release_delta", 50_000),
        ownership=ownership,
        rng_seed=doc.get("rng_seed", 0),
    )


def _parse_ptp(doc: dict):
    _check_keys(doc, ["kind", "sync_interval", "network_delay",
                      "initial_freq_offset_ppm", "filter_window", "rounds",
                      "rng_seed", "error_model"], "ptp")
    # A study reports its worst round, so it needs one; the library itself
    # accepts zero rounds.
    rounds = doc.get("rounds", 1000)
    if rounds < 1:
        raise ValidationError(f"ptp: rounds must be >= 1, got {rounds!r}")
    try:
        cfg = PtpConfig(
            sync_interval=doc.get("sync_interval", 100_000_000),
            network_delay=doc.get("network_delay", 10_000),
            initial_freq_offset_ppm=doc.get("initial_freq_offset_ppm", 1.0),
            filter_window=doc.get("filter_window", 10),
            rounds=rounds,
            rng_seed=doc.get("rng_seed", 0),
        )
        em = doc.get("error_model", {})
        _check_keys(em, ["g_master", "g_slave", "j_master_in", "j_master_out",
                         "j_slave_in", "j_slave_out"], "error_model")
        model = PtpErrorModel(
            g_master=em.get("g_master", 2400),
            g_slave=em.get("g_slave", 2400),
            j_master_in=em.get("j_master_in", 1000),
            j_master_out=em.get("j_master_out", 1000),
            j_slave_in=em.get("j_slave_in", 1000),
            j_slave_out=em.get("j_slave_out", 1000),
        )
    except ValueError as exc:
        raise ValidationError(f"ptp: {exc}") from exc
    return cfg, model


def _parse_sweep(doc: dict) -> SweepConfig:
    _check_keys(doc, ["kind", "utilizations", "instances_per_point", "seed",
                      "timeout", "jobs", "num_slots", "delta"], "sweep")
    return SweepConfig(
        utilizations=_require(doc, "utilizations", "sweep"),
        instances_per_point=doc.get("instances_per_point", 64),
        seed=doc.get("seed", 0),
        timeout=doc.get("timeout", 10.0),
        jobs=doc.get("jobs", 1),
        num_slots=doc.get("num_slots", 32),
        delta=doc.get("delta", 10_000),
    )


def parse_config(text: str):
    """Parse a YAML config; returns (kind, parsed object)."""
    doc = _load_yaml(text)
    kind = _require(doc, "kind", "config")
    if kind == "scenario":
        return kind, _parse_scenario(doc)
    if kind == "ptp":
        return kind, _parse_ptp(doc)
    if kind == "sweep":
        return kind, _parse_sweep(doc)
    raise ValidationError(f"unknown config kind {kind!r}")


def load_config(path: str):
    with open(path) as fh:
        return parse_config(fh.read())
