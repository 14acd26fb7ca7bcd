"""YAML configuration loading for the command line front end.

A config file is a single YAML document with a ``kind`` key selecting what
it describes: ``scenario`` (a network simulation), ``ptp`` (a clock
synchronization study) or ``sweep`` (a schedulability sweep). Each mapping
fills one dataclass, whose fields give its keys, required keys, defaults and
value types (see ``_build``). Unknown keys are rejected so typos fail loudly
rather than falling back to defaults.

A document that is a JSON object is read with the ``json`` module, as YAML
1.2 reads JSON, and PyYAML is imported only for other documents: it is far
slower and larger, and its YAML 1.1 rules read some JSON numbers, such as
``1e5``, as strings.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import typing
from dataclasses import dataclass

from .engine import BeLoad, Bridge, FlowDef, GateWindow, Scenario
from .errors import PacersimError, ParseError, ValidationError
from .insertion import InsertMode
from .ptp import PtpConfig, PtpErrorModel
from .ring import RingConfig

#: The error model of a ptp config that gives none: software timestamps.
SOFTWARE_TIMESTAMPS = {"g_master": 2400, "g_slave": 2400, "j_master_in": 1000,
                       "j_master_out": 1000, "j_slave_in": 1000, "j_slave_out": 1000}


def _finite(value) -> bool:
    """A finite int or float (not a bool); an int must fit in a float."""
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:
        return False


@dataclass
class SweepConfig:
    utilizations: list
    instances_per_point: int = 64
    seed: int = 0
    timeout: float = 10.0
    jobs: int = 1
    num_slots: int = 32
    delta: int = 10_000

    def __post_init__(self):
        for u in self.utilizations:
            if not _finite(u):
                raise ValidationError(f"utilizations must be finite numbers, got {u!r:.40}")


def _check(value, hint, where: str, name=None):
    """``value`` if it has the field type ``hint``, else a ValidationError
    naming ``where`` and ``name``. An int is not a bool, a float is a finite
    int or float, and Optional[X], held as (X, NoneType), also takes None."""
    if hint is int:
        ok = type(value) is int
    elif hint is float:
        ok = _finite(value)
    elif type(hint) is tuple:
        return None if value is None else _check(value, hint[0], where, name)
    else:
        ok = isinstance(value, hint)
    if not ok:
        kind = "a finite number" if hint is float else hint.__name__
        at = where if name is None else f"{where}.{name}"
        raise ValidationError(f"{at} must be {kind}, got {value!r:.40}")
    return value


@functools.cache
def _fields(cls) -> tuple:
    """(name -> type, required names) of the fields a config mapping sets."""
    hints = {name: typing.get_args(h) if typing.get_origin(h) is typing.Union else h
             for name, h in typing.get_type_hints(cls).items()}
    fields = [f for f in dataclasses.fields(cls) if f.init]
    missing = dataclasses.MISSING
    return ({f.name: hints[f.name] for f in fields},
            {f.name for f in fields if f.default is missing and f.default_factory is missing})


def _build(cls, mapping, where: str, **converted):
    """``cls`` from a config mapping, each value checked against its field.

    ``converted`` replaces what a mapping cannot hold as is: nested objects,
    integer keys, enum names. A constructor's ValueError or PacersimError
    becomes a ValidationError."""
    types, required = _fields(cls)
    kwargs = {**_check(mapping, dict, where), **converted}
    if not kwargs.keys() <= types.keys():
        unknown = sorted(map(str, kwargs.keys() - types.keys()))
        raise ValidationError(f"{where}: unknown key(s) {unknown}")
    if not required <= kwargs.keys():
        raise ValidationError(f"{where}: missing required key(s) {sorted(required - kwargs.keys())}")
    for name, value in kwargs.items():
        hint = types[name]
        if type(value) is not hint or hint is float:  # else nothing to check
            _check(value, hint, where, name)
    try:
        return cls(**kwargs)
    except (ValueError, PacersimError) as exc:
        raise ValidationError(f"{where}: {exc}") from exc


def _int_keys(mapping, where: str, value_type) -> dict:
    """``mapping`` with integer keys (a JSON object's keys are strings)."""
    out = {}
    for key, value in _check(mapping, dict, where).items():
        try:
            n = int(key) if type(key) is str else key
        except ValueError:
            n = None
        if type(n) is not int:
            raise ValidationError(f"{where}: key {key!r:.40} is not an integer")
        out[n] = _check(value, value_type, where, key)
    return out


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


def _parse_scenario(doc: dict) -> Scenario:
    ring = _check(doc.get("ring"), dict, "scenario.ring")
    flows = []
    for i, fd in enumerate(_check(doc.get("flows", []), list, "scenario.flows")):
        where = f"scenario.flows[{i}]"
        fd = {"flow_id": i + 1, "phase": 0, **_check(fd, dict, where)}
        flows.append(_build(FlowDef, fd, where, late_by=_int_keys(
            fd.get("late_by", {}), f"{where}.late_by", int)))
    be_loads = [_build(BeLoad, bd, f"scenario.be_loads[{i}]") for i, bd in
                enumerate(_check(doc.get("be_loads", []), list, "scenario.be_loads"))]
    bridges = []
    for i, brd in enumerate(_check(doc.get("bridges", []), list, "scenario.bridges")):
        where = f"scenario.bridges[{i}]"
        brd = {"name": f"bridge{i}", **_check(brd, dict, where)}
        gates = _int_keys(brd.get("gates", {}), f"{where}.gates", dict)
        bridges.append(_build(Bridge, brd, where, gates={
            fid: _build(GateWindow, g, f"{where}.gates.{fid}") for fid, g in gates.items()}))
    mode = doc.get("mode", "strict")
    if not (isinstance(mode, str) and mode.upper() in InsertMode.__members__):
        raise ValidationError(f"scenario.mode must be strict or relaxed, got {mode!r:.40}")
    ownership = doc.get("ownership")
    if ownership is not None:
        ownership = _int_keys(ownership, "scenario.ownership", int)
    return _build(Scenario, doc, "scenario",
                  ring=_build(RingConfig, {"batch_size": 1, **ring}, "scenario.ring"),
                  flows=flows, be_loads=be_loads, bridges=bridges,
                  mode=InsertMode[mode.upper()], ownership=ownership)


def _parse_ptp(doc: dict):
    model = _check(doc.pop("error_model", {}), dict, "ptp.error_model")
    cfg = _build(PtpConfig, doc, "ptp")
    # A study reports its worst round, so it needs one; the library itself
    # accepts zero rounds.
    if cfg.rounds < 1:
        raise ValidationError(f"ptp: rounds must be >= 1, got {cfg.rounds!r}")
    return cfg, _build(PtpErrorModel, {**SOFTWARE_TIMESTAMPS, **model}, "ptp.error_model")


def parse_config(text: str):
    """Parse a YAML config; returns (kind, parsed object)."""
    doc = _load_yaml(text)
    kind = doc.pop("kind", None)
    if kind == "scenario":
        return kind, _parse_scenario(doc)
    if kind == "ptp":
        return kind, _parse_ptp(doc)
    if kind == "sweep":
        return kind, _build(SweepConfig, doc, "sweep")
    raise ValidationError(f"config: kind must be scenario, ptp or sweep, got {kind!r:.40}")


def load_config(path: str):
    with open(path) as fh:
        return parse_config(fh.read())
