import importlib.util
import json
import re
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from codesign.errors import (
    InvalidConfig,
    InvariantViolation,
    MissingField,
    NonPositiveQuantity,
    UnknownStrategyName,
)
from codesign.profiles import (
    DeviceProfile,
    FusionStrategy,
    LayerProfile,
    LinkProfile,
    config_from_dict,
    config_to_dict,
    is_finite_real,
    load_config,
    load_device,
    running_load,
    total_load,
)

from conftest import CONFIG, FULL, S3, FIXTURES, config_file, paper, random_model, uniform_model


def test_load_device_nano():
    device = load_device(FIXTURES / "jetson_nano.json")
    assert device.peak_compute == 472e9
    assert device.mem_bandwidth == 25.6e9
    assert device.utilization == 1.0


def test_load_device_nx():
    device = load_device(FIXTURES / "jetson_nx.json")
    assert device.peak_compute == 21e12
    assert device.mem_bandwidth == 51.2e9


def test_zero_bandwidth_rejected(tmp_path):
    with pytest.raises(NonPositiveQuantity) as err:
        load_config(config_file(tmp_path, (["link", "bandwidth"], 0)))
    assert "link.bandwidth" in str(err.value)


def test_negative_device_compute_names_key(tmp_path):
    with pytest.raises(NonPositiveQuantity) as err:
        load_config(config_file(tmp_path, (["devices", 1, "peak_compute"], -1)))
    assert "devices[1].peak_compute" in str(err.value)


def test_missing_field_named(tmp_path):
    raw = paper()
    del raw["model"]["layers"][2]["output_activation_bytes"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    with pytest.raises(MissingField) as err:
        load_config(bad)
    assert "model.layers[2].output_activation_bytes" in str(err.value)


def test_unknown_strategy_named(tmp_path):
    raw = paper()
    layer = raw["model"]["layers"][0]
    layer["flops_by_strategy"]["conv5"] = layer["flops_by_strategy"].pop("conv3")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    with pytest.raises(UnknownStrategyName) as err:
        load_config(bad)
    assert "conv5" in str(err.value)


def test_penalty_table_must_zero_full_structure(tmp_path):
    with pytest.raises(InvariantViolation):
        load_config(config_file(tmp_path, (["penalties", "1", "conv3+skip+conv1"], 0.5)))


def test_fusible_flops_must_be_monotone():
    flops = {S3: 100.0, FusionStrategy.CONV3_SKIP: 90.0,
             FusionStrategy.CONV3_CONV1: 120.0, FULL: 130.0}
    with pytest.raises(InvariantViolation):
        LayerProfile(index=0, flops_by_strategy=flops,
                     bytes_by_strategy={s: 10.0 for s in FusionStrategy},
                     output_activation_bytes=1.0, fusible=True)


def test_total_load_two_layers():
    model = uniform_model(2, flops=100.0, data=10.0)
    assert total_load(model, S3) == (200.0, 20.0)


def test_total_load_single_layer_identity():
    model = uniform_model(1, flops=123.0, data=7.0)
    assert total_load(model, FULL) == (123.0, 7.0)


def test_total_load_matches_prefix_sum_oracle():
    # independent accumulation over a 10-layer profile with integer-valued
    # costs, so summation order cannot matter
    rng = np.random.default_rng(20240301)
    model = random_model(rng, 10)
    for strategy in FusionStrategy:
        expected_flops = 0.0
        expected_bytes = 0.0
        for layer in reversed(model.layers):
            expected_flops += layer.flops_by_strategy[strategy]
            expected_bytes += layer.bytes_by_strategy[strategy]
        assert total_load(model, strategy) == (expected_flops, expected_bytes)


def segment_load(model, start, stop, strategy):
    """(FLOPs, bytes) of layers[start:stop]; (0, 0) for no layer."""
    flops, data = running_load(model.layers[start:stop], strategy)
    return (flops[-1], data[-1]) if flops else (0.0, 0.0)


def test_total_load_additive_over_any_split():
    rng = np.random.default_rng(7)
    model = random_model(rng, 8)
    n = len(model.layers)
    for strategy in FusionStrategy:
        whole = total_load(model, strategy)
        for k in range(n + 1):
            head = segment_load(model, 0, k, strategy)
            tail = segment_load(model, k, n, strategy)
            assert (head[0] + tail[0], head[1] + tail[1]) == whole


def test_fusible_layers_monotone_in_branch_count():
    rng = np.random.default_rng(11)
    model = random_model(rng, 12)
    for layer in model.layers:
        if not layer.fusible:
            continue
        f = layer.flops_by_strategy
        assert f[S3] <= f[FusionStrategy.CONV3_SKIP] <= f[FULL]
        assert f[S3] <= f[FusionStrategy.CONV3_CONV1] <= f[FULL]


def test_config_round_trip():
    config = load_config(CONFIG)
    again = config_from_dict(json.loads(json.dumps(config_to_dict(config))))
    assert again == config


def test_config_device_accessors():
    config = load_config(CONFIG)
    assert config.device1.name == "jetson-nano"
    assert config.device2.name == "jetson-nx"
    assert config.lambda1 >= 0


@pytest.mark.parametrize("devices, error, message", [
    (1, MissingField, "devices (need at least a terminal and an edge device)"),
    (3, InvariantViolation, "devices lists 3 devices; a plan splits the model across exactly 2"),
], ids=["one", "three"])
def test_config_needs_exactly_two_devices(devices, error, message):
    raw = paper()
    raw["devices"] = [raw["devices"][0]] * devices
    with pytest.raises(error) as err:
        config_from_dict(raw)
    assert str(err.value) == message


@pytest.mark.parametrize("keys", [("1", "2", "3"), ("1", "3")], ids=["extra", "renamed"])
def test_penalties_need_exactly_sub_models_1_and_2(keys):
    raw = paper()
    table = raw["penalties"]["2"]
    raw["penalties"] = {key: table for key in keys}
    with pytest.raises(InvalidConfig) as err:
        config_from_dict(raw)
    assert str(err.value) == 'penalties keys must be exactly "1" and "2"'


def test_an_integer_beyond_the_float_range_is_not_a_finite_number(tmp_path):
    bad = config_file(tmp_path, (["devices", 0, "peak_compute"], 10 ** 399))
    assert '"peak_compute": 1' + "0" * 399 + "," in Path(bad).read_text()
    with pytest.raises(InvalidConfig) as err:
        load_config(bad)
    assert str(err.value) == "devices[0].peak_compute must be a finite number"


@pytest.mark.parametrize("value, expected", [
    (1, True), (0.5, True), (-0.0, True), (np.float64(0.5), True), (10 ** 308, True),
    (10 ** 309, False), (float("nan"), False), (float("inf"), False),
    (True, False), (False, False), (Fraction(1, 2), False), (Decimal("0.5"), False),
    ("1", False), (None, False),
])
def test_only_an_int_or_a_float_is_a_finite_real(value, expected):
    # the JSON parser and argparse give ints and floats; any other number
    # type is no input's
    assert is_finite_real(value) is expected


def test_device_count_is_checked_after_every_key_is_read():
    with pytest.raises(MissingField) as err:
        config_from_dict({"devices": []})
    assert str(err.value) == "link"


# (key path of the object, a key its record does not name, the error's path)
MISSPELT = [
    ((), "lambda", "lambda"),
    (("devices", 0), "utilisation", "devices[0].utilisation"),
    (("link",), "fixed_latancy", "link.fixed_latancy"),
    (("model",), "layer", "model.layer"),
    (("model", "layers", 2), "fusable", "model.layers[2].fusable"),
]


@pytest.mark.parametrize("path, key, named", MISSPELT, ids=[named for *_, named in MISSPELT])
def test_key_the_schema_does_not_name_is_rejected(path, key, named):
    raw = paper()
    target = raw
    for step in path:
        target = target[step]
    target[key] = 0.5
    with pytest.raises(InvalidConfig) as err:
        config_from_dict(raw)
    assert str(err.value) == f"{named} is not a config key"


def test_first_unknown_key_in_document_order_is_named():
    raw = paper()
    raw["link"] = {"zeta": 1.0, "bandwidth": 1e6, "alpha": 1.0}
    with pytest.raises(InvalidConfig) as err:
        config_from_dict(raw)
    assert str(err.value) == "link.zeta is not a config key"


def test_unknown_key_does_not_hide_an_error_in_its_object():
    raw = paper()
    raw["link"] = {"bandwidth": 0.0, "fixed_latancy": 0.5}
    with pytest.raises(NonPositiveQuantity) as err:
        config_from_dict(raw)
    assert str(err.value) == "link.bandwidth"


def test_a_key_left_out_takes_its_record_default():
    raw = paper()
    del raw["devices"][0]["utilization"]
    del raw["link"]["fixed_latency"]
    config = config_from_dict(raw)
    assert config.device1.utilization == DeviceProfile._field_defaults["utilization"]
    assert config.link.fixed_latency == LinkProfile._field_defaults["fixed_latency"]


def test_a_repeated_config_key_is_named(tmp_path):
    # json keeps the last of a repeated key: 5.0 would be dropped unseen
    text = Path(CONFIG).read_text()
    path = tmp_path / "dup.json"
    path.write_text(text.replace('"lambda1": 0.01', '"lambda1": 5.0, "lambda1": 0.01'))
    with pytest.raises(InvalidConfig) as err:
        load_config(path)
    assert str(err.value) == f"{path}: duplicate key 'lambda1'"


def test_a_repeated_key_in_a_layer_is_named(tmp_path):
    text = Path(CONFIG).read_text()
    path = tmp_path / "dup.json"
    path.write_text(text.replace('"fusible": true', '"fusible": true, "fusible": false', 1))
    with pytest.raises(InvalidConfig) as err:
        load_config(path)
    assert str(err.value) == f"{path}: duplicate key 'fusible'"


def test_a_repeated_device_file_key_is_named(tmp_path):
    path = tmp_path / "board.json"
    path.write_text('{"name": "board", "peak_compute": 1e12, "mem_bandwidth": 2e10, '
                    '"peak_compute": 1e9}')
    with pytest.raises(InvalidConfig) as err:
        load_device(path)
    assert str(err.value) == f"{path}: duplicate key 'peak_compute'"


def test_device_file_with_an_unknown_key_is_rejected(tmp_path):
    spec = json.loads((FIXTURES / "jetson_nano.json").read_text())
    path = tmp_path / "board.json"
    path.write_text(json.dumps({**spec, "peak_flops": 1.0}))
    with pytest.raises(InvalidConfig) as err:
        load_device(path)
    assert str(err.value) == "board.peak_flops is not a config key"


@pytest.mark.parametrize("content, reason", [
    (None, "No such file or directory"),
    (b"\xff\xfe{", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
], ids=["missing", "undecodable"])
def test_device_file_error_names_the_path_as_given(tmp_path, monkeypatch, content, reason):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "boards").mkdir()
    if content is not None:
        (tmp_path / "boards" / "nano.json").write_bytes(content)
    with pytest.raises(InvalidConfig) as err:
        load_device("./boards//nano.json")
    assert str(err.value) == f"./boards//nano.json: {reason}"


def test_device_name_is_the_file_stem(tmp_path):
    spec = json.loads((FIXTURES / "jetson_nano.json").read_text())
    spec["peak_compute"] = 0.0
    (tmp_path / "boards").mkdir()
    (tmp_path / "boards" / "nano.v2.json").write_text(json.dumps(spec))
    with pytest.raises(NonPositiveQuantity) as err:
        load_device(f"{tmp_path}/.//boards//nano.v2.json")
    assert str(err.value) == "nano.v2.peak_compute"


def test_readme_config_example_loads():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = re.search(r"## Config schema\n.*?```jsonc\n(.*?)```", readme, re.S).group(1)
    config = config_from_dict(json.loads(block))
    assert (config.device1.name, config.device2.name) == ("jetson-nano", "jetson-nx")
    assert len(config.model.layers) == 2


def test_fixtures_regenerate_exactly(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("make_fixtures",
                                                  FIXTURES / "make_fixtures.py")
    make_fixtures = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_fixtures)
    monkeypatch.setattr(make_fixtures, "HERE", tmp_path)
    make_fixtures.main()
    written = sorted(path.name for path in tmp_path.iterdir())
    assert written == sorted(path.name for path in FIXTURES.glob("*.json"))
    for name in written:
        assert (tmp_path / name).read_bytes() == (FIXTURES / name).read_bytes(), name
