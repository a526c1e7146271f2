"""Device, link, model and penalty-table descriptions.

Everything downstream consumes only the types defined here and in
``codesign.strategy`` (the fusion strategies, imported here), and sums layer
loads only through ``running_load``.  All quantities are raw SI numbers:
FLOPs, bytes, bytes/s, seconds.  Profiles are immutable after loading.

The records are validated namedtuples: each is a ``collections.namedtuple``
subclass whose ``__new__`` checks the fields, so a record exists only if it
is valid, and none can be assigned to afterwards.  ``_replace`` and ``_make``
skip the checks.  Namedtuple classes are cheap to create, which keeps the
package's start-up short.

The records state the config schema: each JSON object holds only its
record's field names, written in field order, and ``Config`` holds the two
devices.  ``_record`` reads every device, link, layer and model, each field
by its JSON kind in the one ``_KINDS`` table; a field left out takes its
record's own default.  A config file's top-level keys are ``devices`` (a
list of the two, terminal first), ``link``, ``model``, ``penalties`` and
``lambda1`` (see README for the full schema).
"""

from __future__ import annotations

import contextlib
import math
import os
from collections import namedtuple
from itertools import accumulate

from .errors import (
    CodesignError,
    InvalidConfig,
    InvariantViolation,
    MissingField,
    NonPositiveQuantity,
)
from .strategy import FULL_STRUCTURE, STRATEGY_RANK, FusionStrategy, parse_strategy  # noqa: F401


class DeviceProfile(namedtuple("DeviceProfile", "name peak_compute mem_bandwidth utilization",
                                defaults=(1.0,))):
    """One hardware platform: peak compute (FLOP/s), memory bandwidth
    (bytes/s) and the fraction of peak actually achievable."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.peak_compute <= 0:
            raise NonPositiveQuantity("peak_compute")
        if self.mem_bandwidth <= 0:
            raise NonPositiveQuantity("mem_bandwidth")
        if not 0 < self.utilization <= 1:
            raise InvariantViolation("utilization must be in (0, 1]")
        return self


class LinkProfile(namedtuple("LinkProfile", "bandwidth fixed_latency", defaults=(0.0,))):
    """Transport between the two devices: bandwidth in bytes/s plus an
    additive fixed latency in seconds (e.g. ping)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.bandwidth <= 0:
            raise NonPositiveQuantity("bandwidth")
        if self.fixed_latency < 0:
            raise NonPositiveQuantity("fixed_latency")
        return self


class LayerProfile(namedtuple("LayerProfile", "index flops_by_strategy bytes_by_strategy "
                                              "output_activation_bytes fusible")):
    """Per-layer cost record.

    ``flops_by_strategy`` / ``bytes_by_strategy`` give the work and byte
    traffic of the layer under each fusion strategy; non-fusible layers
    carry identical costs for every strategy.  ``output_activation_bytes``
    is what crosses the link if the model is cut right after this layer.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for label, table in (("flops_by_strategy", self.flops_by_strategy),
                             ("bytes_by_strategy", self.bytes_by_strategy)):
            for strategy in FusionStrategy:
                if strategy not in table:
                    raise MissingField(f"{label}[{strategy.value}]")
                if table[strategy] <= 0:
                    raise NonPositiveQuantity(f"{label}[{strategy.value}]")
        if self.output_activation_bytes < 0:
            raise NonPositiveQuantity("output_activation_bytes")
        if self.fusible:
            f = self.flops_by_strategy
            chains = (
                (FusionStrategy.CONV3, FusionStrategy.CONV3_SKIP, FULL_STRUCTURE),
                (FusionStrategy.CONV3, FusionStrategy.CONV3_CONV1, FULL_STRUCTURE),
            )
            for chain in chains:
                for a, b in zip(chain, chain[1:]):
                    if f[a] > f[b]:
                        raise InvariantViolation(
                            f"flops_by_strategy[{a.value}] > flops_by_strategy[{b.value}]")
        else:
            for label, table in (("flops_by_strategy", self.flops_by_strategy),
                                 ("bytes_by_strategy", self.bytes_by_strategy)):
                if len(set(table.values())) != 1:
                    raise InvariantViolation(
                        f"{label} must be identical across strategies for a non-fusible layer")
        return self


class ModelProfile(namedtuple("ModelProfile", "name layers")):
    """A named model: a tuple of ``LayerProfile``s indexed 0, 1, ... in order."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not self.layers:
            raise MissingField("layers")
        for position, layer in enumerate(self.layers):
            if layer.index != position:
                raise InvariantViolation(
                    f"layers[{position}].index is {layer.index}; layers must be "
                    "listed in order and indexed consecutively from 0")
        return self


class AccuracyPenaltyTable(namedtuple("AccuracyPenaltyTable", "penalties")):
    """Accuracy points lost per sub-model (1 or 2) and fusion strategy:
    ``penalties[sub][strategy]``.

    Retaining every branch costs nothing; dropping branches can only hurt,
    and dropping both optional branches hurts at least as much as dropping
    either one.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for sub in (1, 2):
            if sub not in self.penalties:
                raise MissingField(f"penalties[{sub}]")
            table = self.penalties[sub]
            for strategy in FusionStrategy:
                if strategy not in table:
                    raise MissingField(f"penalties[{sub}][{strategy.value}]")
                if table[strategy] < 0:
                    raise NonPositiveQuantity(f"penalties[{sub}][{strategy.value}]")
            if table[FULL_STRUCTURE] != 0:
                raise InvariantViolation(
                    f"penalties[{sub}][{FULL_STRUCTURE.value}] must be 0")
            for two_branch in (FusionStrategy.CONV3_SKIP, FusionStrategy.CONV3_CONV1):
                if table[FusionStrategy.CONV3] < table[two_branch]:
                    raise InvariantViolation(
                        f"penalties[{sub}][{FusionStrategy.CONV3.value}] must be >= "
                        f"penalties[{sub}][{two_branch.value}]")
        return self

    def penalty(self, sub_model: int, strategy: FusionStrategy) -> float:
        return self.penalties[sub_model][strategy]


class Config(namedtuple("Config", "device1 device2 link model penalties lambda1")):
    """A fully validated planning problem: two devices (``device1`` = terminal,
    ``device2`` = edge server), the link between them, the model, the
    accuracy penalty table, and the latency/accuracy trade-off weight."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if len(self.model.layers) < 2:
            raise InvariantViolation("model.layers must contain at least 2 layers")
        if self.lambda1 < 0:
            raise NonPositiveQuantity("lambda1")
        return self


# ---------------------------------------------------------------------------
# Parsing / serialization
# ---------------------------------------------------------------------------

_EXPECTED = {float: "a finite number", str: "a JSON string", int: "a JSON integer",
             bool: "a JSON bool", list: "a JSON array", dict: "a JSON object"}


def is_finite_real(value) -> bool:
    """An int or a float, as the JSON parser and argparse give them, that
    converts to a finite float; a bool is not a number."""
    try:
        return (isinstance(value, (int, float)) and not isinstance(value, bool)
                and math.isfinite(value))
    except OverflowError:  # an int beyond the float range
        return False


def _field(raw, key, where, kind=float, default=None):
    """``raw[key]`` as a finite float or as exactly the JSON type ``kind``,
    required unless ``default`` is given.  Errors name the key's full path."""
    if not isinstance(raw, dict):
        raise InvalidConfig(f"{where or 'config'} must be a JSON object")
    value = raw.get(key, default)
    if kind is float:
        if is_finite_real(value):
            return float(value)
    elif type(value) is kind:
        if kind is not str:
            return value
        # a name is written as CSV in UTF-8: csv.writer quotes a lone \r on
        # 3.13 only and cannot write a NUL on 3.10, and UTF-8 cannot encode a
        # lone surrogate
        for char, what in (("\r", "a carriage return"), ("\0", "a NUL")):
            if char in value:
                raise InvalidConfig(f"{where}.{key} must not contain {what}")
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            raise InvalidConfig(f"{where}.{key} must not contain a lone surrogate") from None
        return value
    path = f"{where}.{key}" if where else key
    if key not in raw:
        raise MissingField(path)
    raise InvalidConfig(f"{path} must be {_EXPECTED[kind]}")


def _only_keys(raw, keys, where):
    """Reject the first key of the JSON object ``raw``, in document order,
    that ``keys`` does not name: a misspelt key must not fall back to a default."""
    for key in raw:
        if key not in keys:
            path = f"{where}.{key}" if where else key
            raise InvalidConfig(f"{path} is not a config key")


def _strategy_map(raw, key, where) -> dict[FusionStrategy, float]:
    table, where = _field(raw, key, where, dict), f"{where}.{key}"
    return {parse_strategy(name, where): _field(table, name, where) for name in table}


def _layers(raw, key, where) -> tuple[LayerProfile, ...]:
    return tuple(_record(LayerProfile, layer, f"{where}.{key}[{i}]")
                 for i, layer in enumerate(_field(raw, key, where, list)))


# Each record's (field, kind, default) in field order.  A kind is a JSON type
# ``_field`` reads or a reader of ``raw[key]``; a field is required unless
# the record has a default for it.
_KINDS = {cls: tuple((key, kind, cls._field_defaults.get(key))
                     for key, kind in zip(cls._fields, kinds, strict=True))
          for cls, kinds in ((DeviceProfile, (str, float, float, float)),
                             (LinkProfile, (float, float)),
                             (LayerProfile, (int, _strategy_map, _strategy_map, float, bool)),
                             (ModelProfile, (str, _layers)))}


def _record(cls, raw, where):
    """``cls`` read from the JSON object ``raw``, which may hold only
    ``cls._fields``, each field by its ``_KINDS`` entry; an error the
    record's validation raises gets ``where`` as prefix."""
    values = [_field(raw, key, where, kind, default) if isinstance(kind, type)
              else kind(raw, key, where) for key, kind, default in _KINDS[cls]]
    try:
        record = cls(*values)
    except CodesignError as exc:
        raise type(exc)(f"{where}.{exc}") from None
    _only_keys(raw, cls._fields, where)
    return record


def _penalties_from_dict(raw: dict, where: str = "penalties") -> AccuracyPenaltyTable:
    if set(raw) != {"1", "2"}:
        raise InvalidConfig(f'{where} keys must be exactly "1" and "2"')
    # the table's messages already name the top-level "penalties" key
    return AccuracyPenaltyTable({int(key): _strategy_map(raw, key, where) for key in raw})


def config_from_dict(raw: dict) -> Config:
    devices = [_record(DeviceProfile, d, f"devices[{i}]")
               for i, d in enumerate(_field(raw, "devices", "", list))]
    fields = (_record(LinkProfile, _field(raw, "link", "", dict), "link"),
              _record(ModelProfile, _field(raw, "model", "", dict), "model"),
              _penalties_from_dict(_field(raw, "penalties", "", dict)),
              _field(raw, "lambda1", ""))
    if len(devices) < 2:
        raise MissingField("devices (need at least a terminal and an edge device)")
    if len(devices) > 2:
        raise InvariantViolation(f"devices lists {len(devices)} devices; "
                                 "a plan splits the model across exactly 2")
    config = Config(*devices, *fields)
    _only_keys(raw, ("devices", "link", "model", "penalties", "lambda1"), "")
    return config


def _by_name(table: dict) -> dict:
    """A strategy table keyed by strategy name, in the table's own order."""
    return {s.value: v for s, v in table.items()}


def config_to_dict(config: Config) -> dict:
    """The JSON document ``config_from_dict`` reads back as ``config``."""
    return {
        "devices": [config.device1._asdict(), config.device2._asdict()],
        "link": config.link._asdict(),
        "model": dict(config.model._asdict(), layers=[
            dict(layer._asdict(), flops_by_strategy=_by_name(layer.flops_by_strategy),
                 bytes_by_strategy=_by_name(layer.bytes_by_strategy))
            for layer in config.model.layers]),
        "penalties": {str(sub): _by_name(table)
                      for sub, table in sorted(config.penalties.penalties.items())},
        "lambda1": config.lambda1,
    }


@contextlib.contextmanager
def _opened(path, newline=None):
    """The input file at ``path``, open as UTF-8 with ``open``'s ``newline``.
    Every input file is opened here, and an error opening, reading or
    decoding it in the block names the path as it was given."""
    try:
        with open(path, encoding="utf-8", newline=newline) as handle:
            yield handle
    except OSError as exc:
        raise InvalidConfig(f"{path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise InvalidConfig(f"{path}: {exc}") from None


def _read_json(path, number=None) -> dict:
    """The JSON document at ``path``, in which no object repeats a key;
    ``number``, if given, parses each non-integer number and each NaN or
    Infinity constant."""
    import json

    with _opened(path) as handle:
        text = handle.read()

    def unique(pairs):
        # json keeps a repeated key's last value, which would drop the
        # others as silently as a misspelt key's
        obj = dict(pairs)
        if len(obj) < len(pairs):
            seen = set()
            for key, _ in pairs:
                if key in seen:
                    raise InvalidConfig(f"{path}: duplicate key {key!r}")
                seen.add(key)
        return obj

    try:
        return json.loads(text, parse_float=number, parse_constant=number,
                          object_pairs_hook=unique)
    except json.JSONDecodeError as exc:
        raise InvalidConfig(f"{path}: {exc}") from None


def load_config(path) -> Config:
    """Read and validate a full planning config from a JSON file."""
    return config_from_dict(_read_json(path))


def load_device(path) -> DeviceProfile:
    """Read a single-device spec file, such as fixtures/jetson_*.json."""
    return _record(DeviceProfile, _read_json(path), os.path.splitext(os.path.basename(path))[0])


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def running_load(layers, strategy: FusionStrategy) -> tuple[list[float], list[float]]:
    """Running (FLOPs, bytes) sums of the sequence ``layers`` under one
    strategy, adding one layer at a time in the order given: not ``sum``,
    which compensates from Python 3.12.  Every segment load comes from here."""
    return (list(accumulate(layer.flops_by_strategy[strategy] for layer in layers)),
            list(accumulate(layer.bytes_by_strategy[strategy] for layer in layers)))


def total_load(model: ModelProfile, strategy: FusionStrategy) -> tuple[float, float]:
    """Whole-model (FLOPs, bytes) under one strategy, summed from layer 0 up."""
    flops, data = running_load(model.layers, strategy)
    return flops[-1], data[-1]
