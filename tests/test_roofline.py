import math

import numpy as np

from codesign import roofline
from codesign.cost_model import evaluate_plan
from codesign.profiles import DeviceProfile, FusionStrategy, ModelProfile, running_load, total_load
from codesign.roofline import Bottleneck

from conftest import (
    S3,
    nano,
    nx,
    random_device,
    random_model,
    simple_link,
    uniform_layer,
    zero_table,
)


def tx2():
    return DeviceProfile("jetson-tx2", 1.33e12, 59.7e9)


def test_machine_balance_nano():
    assert roofline.machine_balance(nano()) == 18.4375


def test_machine_balance_tx2():
    # 1.33e12 / 59.7e9, checked by long division
    assert math.isclose(roofline.machine_balance(tx2()), 22.278056951423785, rel_tol=1e-12)


def test_machine_balance_symmetric_device():
    device = DeviceProfile("flat", 5e9, 5e9)
    assert roofline.machine_balance(device) == 1.0


def test_model_intensity():
    assert roofline.model_intensity(200.0, 20.0) == 10.0


def test_published_intensities_feed_through():
    # whole-model intensities are inputs here, carried by the fixtures
    assert roofline.classify(19.81, nano()) is Bottleneck.COMPUTE
    assert roofline.classify(19.81, nx()) is Bottleneck.MEMORY


def test_intensity_recovers_fixture_values():
    import json

    from conftest import FIXTURES

    table = json.loads((FIXTURES / "model_intensities.json").read_text())
    by_name = {row["name"]: row for row in table["models"]}
    # flops/byte pairs scaled so the ratio lands exactly on the fixture value
    assert roofline.model_intensity(19.81e9, 1e9) == by_name["RepVGG"]["original_intensity"]
    assert roofline.model_intensity(24.89e9, 1e9) == by_name["Rep-GoogLeNet"]["fused_intensity"]


def test_classify_tie_is_memory_bound():
    device = DeviceProfile("flat", 1e10, 1e9)  # balance exactly 10
    assert roofline.classify(10.0, device) is Bottleneck.MEMORY
    assert roofline.classify(10.0 + 1e-9, device) is Bottleneck.COMPUTE


def split_intensities(plan, model):
    """c1/m1 and c2/m2 of a plan's two segments, summed as the costing path
    sums them."""
    cut = plan.cut_index
    c1, m1 = (sums[-1] for sums in running_load(model.layers[:cut], plan.theta1))
    c2, m2 = (sums[-1] for sums in running_load(model.layers[cut:][::-1], plan.theta2))
    return c1 / m1, c2 / m2


def two_layer_plan(flops, data):
    """The cut-1 plan of a two-layer model whose layers cost ``flops`` and
    ``data``, and the model's intensity."""
    model = ModelProfile("two", tuple(uniform_layer(i, c, m, 1e6)
                                      for i, (c, m) in enumerate(zip(flops, data))))
    plan = evaluate_plan(model, 1, S3, S3, nano(), nx(), simple_link(), zero_table(), 0.0)
    c0, m0 = total_load(model, S3)
    return plan, model, roofline.model_intensity(c0, m0)


def test_even_split_keeps_the_model_intensity():
    plan, model, i0 = two_layer_plan((10e9, 10e9), (0.5e9, 0.5e9))
    assert (plan.lambda_c, plan.lambda_m) == (0.5, 0.5)
    assert split_intensities(plan, model) == (i0, i0) == (20.0, 20.0)


def test_skewed_split_intensities():
    plan, model, _ = two_layer_plan((12e9, 8e9), (0.4e9, 0.6e9))
    assert (plan.lambda_c, plan.lambda_m) == (0.6, 0.4)
    i1, i2 = split_intensities(plan, model)
    assert math.isclose(i1, 30.0, rel_tol=1e-12)
    assert math.isclose(i2, 40.0 / 3.0, rel_tol=1e-12)


def test_quarter_flops_half_bytes_split_intensities():
    plan, model, _ = two_layer_plan((19.81e9 / 4, 3 * 19.81e9 / 4), (0.5e9, 0.5e9))
    assert (plan.lambda_c, plan.lambda_m) == (0.25, 0.5)
    i1, i2 = split_intensities(plan, model)
    assert math.isclose(i1, 9.905, rel_tol=1e-12)
    assert math.isclose(i2, 29.715, rel_tol=1e-12)


def test_feasibility():
    assert roofline.reaches_balance(20.0, nano())
    assert not roofline.reaches_balance(20.0, tx2())  # 20 < 22.278


def test_feasibility_boundary_included():
    device = nano()
    assert roofline.reaches_balance(roofline.machine_balance(device), device)


def test_plan_feasibility_is_each_segment_reaching_balance():
    rng = np.random.default_rng(6)
    strategies = list(FusionStrategy)
    for _ in range(200):
        model = random_model(rng, int(rng.integers(2, 10)))
        cut = int(rng.integers(1, len(model.layers)))
        theta1, theta2 = (strategies[i] for i in rng.integers(0, 4, 2))
        d1, d2 = random_device(rng, "a"), random_device(rng, "b")
        plan = evaluate_plan(model, cut, theta1, theta2, d1, d2, simple_link(),
                             zero_table(), 0.0)
        i1, i2 = split_intensities(plan, model)
        assert plan.feasible == (roofline.reaches_balance(i1, d1),
                                 roofline.reaches_balance(i2, d2))


def test_effective_rate_memory_bound():
    assert roofline.effective_rate(nano(), 10.0) == 256e9  # 10 * 25.6e9 < peak


def test_effective_rate_compute_roof():
    assert roofline.effective_rate(nano(), 100.0) == 472e9


def test_effective_rate_at_ridge_point():
    device = DeviceProfile("d", 1e12, 4e10, utilization=0.8)
    assert roofline.effective_rate(device, roofline.machine_balance(device)) == 0.8 * 1e12


def test_report_far_past_the_ridge_is_compute():
    rep = roofline.report(1e12, 1e9, nano())  # intensity 1000, far past the ridge
    assert rep.bottleneck is Bottleneck.COMPUTE


def test_split_reconstruction_identities():
    # I1 = (lambda_c / lambda_m) * I0 and I2 = ((1 - lambda_c) / (1 - lambda_m)) * I0,
    # with I0 the whole model's intensity under the plan's strategy
    rng = np.random.default_rng(5)
    for _ in range(200):
        model = random_model(rng, int(rng.integers(2, 12)))
        cut = int(rng.integers(1, len(model.layers)))
        strategy = list(FusionStrategy)[int(rng.integers(0, 4))]
        d1, d2 = random_device(rng, "a"), random_device(rng, "b")
        plan = evaluate_plan(model, cut, strategy, strategy, d1, d2, simple_link(),
                             zero_table(), 0.0)
        i0 = roofline.model_intensity(*total_load(model, strategy))
        i1, i2 = split_intensities(plan, model)
        lc, lm = plan.lambda_c, plan.lambda_m
        assert math.isclose((lc / lm) * i0, i1, rel_tol=1e-12)
        assert math.isclose(((1 - lc) / (1 - lm)) * i0, i2, rel_tol=1e-12)


def test_i1_strictly_increasing_in_lambda_c():
    # bytes split fixed at 0.37, FLOPs moved from the tail to the head
    values = []
    for lc in np.linspace(0.05, 0.95, 19).tolist():
        plan, model, _ = two_layer_plan((lc * 25e9, (1 - lc) * 25e9), (0.37e9, 0.63e9))
        assert math.isclose(plan.lambda_c, lc, rel_tol=1e-12)
        values.append(split_intensities(plan, model)[0])
    assert all(a < b for a, b in zip(values, values[1:]))


def test_classify_agrees_with_feasibility():
    rng = np.random.default_rng(9)
    for _ in range(200):
        device = DeviceProfile("d", float(rng.uniform(1e9, 1e13)),
                               float(rng.uniform(1e9, 1e11)))
        intensity = float(rng.uniform(0.1, 1e4))
        sat = roofline.reaches_balance(intensity, device)
        cls = roofline.classify(intensity, device)
        balance = roofline.machine_balance(device)
        assert sat == (cls is Bottleneck.COMPUTE or intensity == balance)


def test_effective_rate_bounds():
    rng = np.random.default_rng(13)
    for _ in range(200):
        device = DeviceProfile("d", float(rng.uniform(1e9, 1e13)),
                               float(rng.uniform(1e9, 1e11)),
                               utilization=float(rng.uniform(0.1, 1.0)))
        intensity = float(rng.uniform(0.1, 1e4))
        rate = roofline.effective_rate(device, intensity)
        assert rate <= device.utilization * device.peak_compute * (1 + 1e-12)
        if intensity <= roofline.machine_balance(device):
            assert math.isclose(rate, device.utilization * intensity * device.mem_bandwidth,
                                rel_tol=1e-12)
