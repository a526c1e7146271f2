"""Metamorphic relations: changes to a config whose effect on every output is
known exactly.  The brute-force argmin (acceptance c3) checks that the
ranking is right for the costs, and the fuzz tests that every output is
finite or every error named; neither catches a cost that is finite,
consistently ranked and wrong, such as a time in the wrong unit or a
dropped factor.  A relation between two runs does.

Every relation is asserted bit for bit.  Multiplying a normal float by 2^k
is exact, and so is every rounded operation on such products, so scaling
each speed (both roofs of both devices, the link bandwidth) by 2^k and each
time-valued input (``fixed_latency``, and ``lambda1``, seconds per accuracy
point) by 2^-k divides every time, and the objective, by exactly 2^k.  That
holds while no value leaves the normal range.  Every number of these
configs and every time they give lies within [2^-100, 2^100]
(``_assert_scalable`` checks it), and each intermediate the cost model
forms (a segment sum, an intensity, a roof rate, a loss term) is a sum of
at most a few hundred of them or a product or quotient of at most four, so
within [2^-400, 2^400].  So k in [-300, 300] keeps
every value within [2^-700, 2^700]: finite and never subnormal.

The winner's objective is the minimum over candidates of sums of rounded
quotients, each monotone in every speed, so raising a speed can never raise
it, in floats as in the reals.
"""

import csv
import io
import json
import math
import random

import pytest

from codesign.cost_model import ROW_FIELDS, evaluate_grid
from codesign.profiles import Config, ModelProfile, config_to_dict, load_config, load_device
from codesign.reparam import plain_conv_layer, rep_block_layer
from conftest import CONFIG, FIXTURES, argv_of, main_stdout

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

K_RANGE = (-300, 300)
TIMES = ("lagrangian", "t_total", "t1", "t2", "t3")
TIME_COLUMNS = [ROW_FIELDS.index(name) for name in TIMES]


def rep_stack(seed: int, blocks: int) -> Config:
    """A RepVGG-style stack of ``blocks`` fusible blocks over two stages,
    between a strided stem, a strided transition and a dense head, on two
    of the Jetson boards with a seeded utilization, link and lambda1."""
    rng = random.Random(seed)
    width = rng.choice((16, 32))
    first = rng.randint(1, blocks - 1)
    layers = [plain_conv_layer(0, 3, width, 16, 16, in_height=32, in_width=32)]
    layers += [rep_block_layer(len(layers) + i, width, 16, 16) for i in range(first)]
    layers.append(plain_conv_layer(len(layers), width, 2 * width, 8, 8,
                                   in_height=16, in_width=16))
    layers += [rep_block_layer(len(layers) + i, 2 * width, 8, 8) for i in range(blocks - first)]
    layers.append(plain_conv_layer(len(layers), 2 * width, 4 * width, 1, 1, kernel=8,
                                   in_height=8, in_width=8))
    boards = rng.sample(["jetson_nano", "jetson_tx1", "jetson_tx2", "jetson_nx"], 2)
    paper = load_config(CONFIG)
    d1, d2 = (load_device(FIXTURES / f"{board}.json")._replace(
        utilization=rng.uniform(0.5, 1.0)) for board in boards)
    link = paper.link._replace(bandwidth=10 ** rng.uniform(6, 9),
                               fixed_latency=rng.uniform(0.0, 1e-3))
    return Config(d1, d2, link, ModelProfile(f"rep-stack-{seed}", tuple(layers)),
                  paper.penalties, 10 ** rng.uniform(-5, -2))


CONFIGS = [load_config(CONFIG), rep_stack(1, 10), rep_stack(2, 30), rep_stack(3, 52)]


def grid(config: Config) -> list[tuple]:
    return evaluate_grid(config.model, config.device1, config.device2, config.link,
                         config.penalties, config.lambda1)


def faster(device, factor: float):
    return device._replace(peak_compute=device.peak_compute * factor,
                           mem_bandwidth=device.mem_bandwidth * factor)


def scaled(config: Config, k: int) -> Config:
    """Every speed times 2^k, every time-valued input divided by it."""
    return config._replace(
        device1=faster(config.device1, 2.0 ** k), device2=faster(config.device2, 2.0 ** k),
        link=config.link._replace(bandwidth=math.ldexp(config.link.bandwidth, k),
                                  fixed_latency=math.ldexp(config.link.fixed_latency, -k)),
        lambda1=math.ldexp(config.lambda1, -k))


def _numbers(node):
    if isinstance(node, dict):
        node = list(node.values())
    if isinstance(node, list):
        return [number for child in node for number in _numbers(child)]
    return [node] if isinstance(node, float) else []


def _assert_scalable(config: Config, rows: list[tuple]):
    numbers = _numbers(config_to_dict(config)) + [row[i] for row in rows for i in TIME_COLUMNS]
    assert all(-100 <= math.frexp(number)[1] <= 100 for number in numbers if number)


def _ranking(rows):
    return [row[2:5] for row in sorted(rows)]


@pytest.mark.parametrize("config", CONFIGS, ids=lambda config: config.model.name)
def test_the_configs_stay_in_the_range_the_scaling_needs(config):
    _assert_scalable(config, grid(config))


@hypothesis.settings(derandomize=True, database=None, max_examples=60, deadline=None)
@hypothesis.given(config=st.sampled_from(CONFIGS), k=st.integers(*K_RANGE))
@hypothesis.example(config=CONFIGS[0], k=K_RANGE[0])
@hypothesis.example(config=CONFIGS[-1], k=K_RANGE[1])
def test_scaling_by_a_power_of_two_divides_every_time_exactly(config, k):
    base, rows = grid(config), grid(scaled(config, k))
    assert _ranking(rows) == _ranking(base)
    for old, new in zip(base, rows):
        expected = list(old)
        for i in TIME_COLUMNS:
            expected[i] = math.ldexp(old[i], -k)
        assert new == tuple(expected)


def _write(path, config: Config) -> str:
    path.write_text(json.dumps(config_to_dict(config)))
    return str(path)


def _plan_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _times(value, exponent: int):
    """``value``, a time or a rate or a table of them, times 2^exponent."""
    if isinstance(value, dict):
        return {key: _times(item, exponent) for key, item in value.items()}
    return math.ldexp(value, exponent)


# the output keys that hold times
OUTPUT_TIMES = ("t1", "t2", "t3", "t_total", "L")


@pytest.mark.parametrize("k", [K_RANGE[0], -20, 1, 30, K_RANGE[1]])
@pytest.mark.parametrize("config", [CONFIGS[0], CONFIGS[2]], ids=lambda config: config.model.name)
def test_scaling_holds_through_plan_cost_and_simulate(tmp_path, config, k):
    paths = _write(tmp_path / "base.json", config), _write(tmp_path / "scaled.json",
                                                            scaled(config, k))

    base, other = (_plan_rows(main_stdout("plan", "--config", path)) for path in paths)
    assert other == [{key: repr(math.ldexp(float(value), -k)) if key in OUTPUT_TIMES else value
                      for key, value in row.items()} for row in base]

    cut = ["--cut", "3", "--theta2", "conv3+skip"]
    base, other = (json.loads(main_stdout(*argv_of("cost", "--config", path, *cut)))
                   for path in paths)
    assert other == {key: _times(value, -k) if key in OUTPUT_TIMES else value
                     for key, value in base.items()}

    # the arrival rate times 2^k and the horizon over it: the same seeded
    # draws, each inter-arrival time divided by 2^k
    exponents = {"service_times": -k, "response_time": -k, "horizon": -k,
                 "arrival_rate": k, "throughput": k}
    base, other = (json.loads(main_stdout(*argv_of("simulate", "--config", path, "--seed", "4",
                                                   "--rate", repr(math.ldexp(5000.0, j)),
                                                   "--horizon", repr(math.ldexp(0.05, -j)))))
                   for path, j in zip(paths, (0, k)))
    assert base["arrivals"] > 100
    assert other == {key: _times(value, exponents[key]) if key in exponents else value
                     for key, value in base.items()}


@pytest.mark.parametrize("halvings", [1, 3])
@pytest.mark.parametrize("device", ["device1", "device2"])
@pytest.mark.parametrize("config", CONFIGS, ids=lambda config: config.model.name)
def test_halving_utilization_is_halving_both_roofs(config, device, halvings):
    factor = 2.0 ** -halvings
    profile = getattr(config, device)
    derated = config._replace(**{device: profile._replace(
        utilization=profile.utilization * factor)})
    slower = config._replace(**{device: faster(profile, factor)})
    assert grid(derated) == grid(slower)


@pytest.mark.parametrize("config", CONFIGS[:2], ids=lambda config: config.model.name)
def test_renaming_changes_no_number(tmp_path, config):
    names = (config.model.name, config.device1.name, config.device2.name)
    renamed = config._replace(model=config.model._replace(name="renamed-model"),
                              device1=config.device1._replace(name="renamed-terminal"),
                              device2=config.device2._replace(name="renamed-edge"))
    assert grid(renamed) == grid(config)
    commands = (["plan"], ["roofline"], ["cost", "--cut", "2"],
                ["simulate", "--rate", "2000", "--horizon", "0.1"])
    for command in commands:
        base = main_stdout(*argv_of(*command, "--config", _write(tmp_path / "base.json", config)))
        other = main_stdout(*argv_of(*command, "--config",
                                     _write(tmp_path / "renamed.json", renamed)))
        for old, new in zip(names, ("renamed-model", "renamed-terminal", "renamed-edge")):
            other = other.replace(new, old)
        assert other == base, command[0]


def _winner(config: Config) -> float:
    return min(grid(config))[0]


KNOBS = {
    "link": lambda config, f: config._replace(
        link=config.link._replace(bandwidth=config.link.bandwidth * f)),
    "device1": lambda config, f: config._replace(device1=faster(config.device1, f)),
    "device2": lambda config, f: config._replace(device2=faster(config.device2, f)),
    "utilization1": lambda config, f: config._replace(
        device1=config.device1._replace(utilization=f / 10)),
    "utilization2": lambda config, f: config._replace(
        device2=config.device2._replace(utilization=f / 10)),
}


@hypothesis.settings(derandomize=True, database=None, max_examples=80, deadline=None)
@hypothesis.given(config=st.sampled_from(CONFIGS[:3]), knob=st.sampled_from(sorted(KNOBS)),
                  factors=st.lists(st.floats(0.1, 10.0), min_size=2, max_size=2))
def test_the_winner_does_not_get_worse_as_a_speed_rises(config, knob, factors):
    # a utilization is the factor over 10, so within (0, 1]
    slow, fast = sorted(factors)
    assert _winner(KNOBS[knob](config, fast)) <= _winner(KNOBS[knob](config, slow))
