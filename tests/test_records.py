"""Every frozen record keeps its API: field names and order, defaults,
properties, validation messages, and no attribute can be assigned."""

import numpy as np
import pytest

from codesign.convergence import QuadraticObjective
from codesign.cost_model import CostBreakdown, PartitionPlan
from codesign.errors import (
    DimensionMismatch,
    InvariantViolation,
    MissingField,
    NonPositiveQuantity,
    ShapeMismatch,
)
from codesign.profiles import (
    AccuracyPenaltyTable,
    Config,
    DeviceProfile,
    FusionStrategy,
    LayerProfile,
    LinkProfile,
    ModelProfile,
)
from codesign.reparam import BatchNorm, BranchKind, BranchSpec, Kernel3x3
from codesign.roofline import Bottleneck, IntensityReport
from codesign.simulator import RequestRecord, SimConfig, SimReport

from conftest import FULL, S3, S3_1X1, S3_SKIP, uniform_layer, uniform_model, zero_table


def device(**changes):
    fields = {"name": "d", "peak_compute": 1e12, "mem_bandwidth": 1e10}
    return DeviceProfile(**{**fields, **changes})


def layer(**changes):
    fields = {"index": 0, "flops_by_strategy": {S3: 1.0, S3_SKIP: 2.0, S3_1X1: 3.0, FULL: 4.0},
              "bytes_by_strategy": {s: 1.0 for s in FusionStrategy},
              "output_activation_bytes": 1.0, "fusible": True}
    return LayerProfile(**{**fields, **changes})


SIDE = {S3: 2.0, S3_SKIP: 1.0, S3_1X1: 1.0, FULL: 0.0}


def table(changes):
    """A penalty table whose sub-model 1 side has ``changes``."""
    return AccuracyPenaltyTable({1: {**SIDE, **changes}, 2: SIDE})


def config(**changes):
    fields = {"devices": (device(), device()), "link": LinkProfile(1e6),
              "model": uniform_model(3), "penalties": zero_table(), "lambda1": 0.0}
    return Config(**{**fields, **changes})


def bn(channels=2, **changes):
    fields = {"gamma": np.ones(channels), "beta": np.zeros(channels),
              "mean": np.zeros(channels), "var": np.ones(channels)}
    return BatchNorm(**{**fields, **changes})


def objective(**changes):
    fields = {"matrix": np.diag([1.0, 2.0]), "linear": np.zeros(2), "split_index": 1}
    return QuadraticObjective(**{**fields, **changes})


def sim_config(**changes):
    fields = {"arrival_rate": 10.0, "service_times": (0.01, 0.02, 0.03), "horizon": 5.0}
    return SimConfig(**{**fields, **changes})


def cost():
    return CostBreakdown(1.0, 2.0, 3.0, 6.0, 0.5, 6.5)


# record -> (field names in order, defaults, a valid instance)
RECORDS = {
    DeviceProfile: (("name", "peak_compute", "mem_bandwidth", "utilization"),
                    {"utilization": 1.0}, device),
    LinkProfile: (("bandwidth", "fixed_latency"), {"fixed_latency": 0.0},
                  lambda: LinkProfile(1e6)),
    LayerProfile: (("index", "flops_by_strategy", "bytes_by_strategy",
                    "output_activation_bytes", "fusible"), {}, layer),
    ModelProfile: (("name", "layers"), {}, lambda: uniform_model(3)),
    AccuracyPenaltyTable: (("penalties",), {}, zero_table),
    Config: (("devices", "link", "model", "penalties", "lambda1"), {}, config),
    CostBreakdown: (("t1", "t2", "t3", "t_total", "accuracy_loss", "lagrangian"), {}, cost),
    PartitionPlan: (("cut_index", "lambda_c", "lambda_m", "theta1", "theta2", "cost",
                     "feasible"), {},
                    lambda: PartitionPlan(1, 0.5, 0.5, S3, FULL, cost(), (True, False))),
    IntensityReport: (("intensity", "bottleneck"), {},
                      lambda: IntensityReport(2.0, Bottleneck.MEMORY)),
    SimConfig: (("arrival_rate", "service_times", "horizon", "seed", "warmup"),
                {"seed": 0, "warmup": None}, sim_config),
    RequestRecord: (("id", "arrival", "start1", "end1", "end_link", "end2"), {},
                    lambda: RequestRecord(0, 0.1, 0.1, 0.2, 0.3, 0.4)),
    SimReport: (("throughput", "response_time", "queue_occupancy", "completed", "arrivals",
                 "completed_total", "in_system_at_end", "records"), {"records": ()},
                lambda: SimReport(1.0, None, {}, 0, 0, 0, 0)),
    BatchNorm: (("gamma", "beta", "mean", "var", "eps"), {"eps": 1e-5}, bn),
    BranchSpec: (("kind", "weight", "bn"), {},
                 lambda: BranchSpec(BranchKind.IDENTITY, None, bn())),
    Kernel3x3: (("weights", "bias"), {},
                lambda: Kernel3x3(np.zeros((2, 3, 3, 3)), np.zeros(2))),
    QuadraticObjective: (("matrix", "linear", "split_index"), {}, objective),
}


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: record.__name__)
def test_fields_and_defaults(record):
    fields, defaults, make = RECORDS[record]
    assert record._fields == fields
    assert record._field_defaults == defaults
    instance = make()
    for name, value in defaults.items():
        assert getattr(instance, name) == value


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: record.__name__)
def test_attributes_cannot_be_assigned(record):
    instance = RECORDS[record][2]()
    with pytest.raises(AttributeError):
        setattr(instance, record._fields[0], None)
    with pytest.raises(AttributeError):
        instance.not_a_field = None
    assert not hasattr(instance, "__dict__")


def test_properties():
    model = uniform_model(4)
    assert model.boundaries == range(1, 4)
    devices = (device(name="a"), device(name="b"), device(name="c"))
    setup = config(devices=devices)
    assert (setup.device1, setup.device2) == devices[:2]
    assert zero_table().penalty(2, S3) == 0.0
    assert sim_config().effective_warmup == 0.1 * 5.0
    assert sim_config(warmup=0.0).effective_warmup == 0.0
    branch = BranchSpec(BranchKind.CONV1X1, np.zeros((3, 2, 1, 1)), bn(3))
    assert (branch.out_channels, branch.in_channels) == (3, 2)
    identity = BranchSpec(BranchKind.IDENTITY, None, bn(4))
    assert (identity.out_channels, identity.in_channels) == (4, 4)
    assert objective().dim == 2


# (build an invalid record, error class, message)
INVALID = [
    (lambda: device(peak_compute=0.0), NonPositiveQuantity, "peak_compute"),
    (lambda: device(mem_bandwidth=-1.0), NonPositiveQuantity, "mem_bandwidth"),
    (lambda: device(utilization=1.5), InvariantViolation, "utilization must be in (0, 1]"),
    (lambda: LinkProfile(0.0), NonPositiveQuantity, "bandwidth"),
    (lambda: LinkProfile(1.0, -1.0), NonPositiveQuantity, "fixed_latency"),
    (lambda: layer(flops_by_strategy={S3: 1.0}), MissingField,
     "flops_by_strategy[conv3+skip]"),
    (lambda: layer(bytes_by_strategy={s: 0.0 for s in FusionStrategy}), NonPositiveQuantity,
     "bytes_by_strategy[conv3]"),
    (lambda: layer(output_activation_bytes=-1.0), NonPositiveQuantity,
     "output_activation_bytes"),
    (lambda: layer(flops_by_strategy={S3: 5.0, S3_SKIP: 2.0, S3_1X1: 6.0, FULL: 7.0}),
     InvariantViolation, "flops_by_strategy[conv3] > flops_by_strategy[conv3+skip]"),
    (lambda: layer(fusible=False), InvariantViolation,
     "flops_by_strategy must be identical across strategies for a non-fusible layer"),
    (lambda: ModelProfile("m", ()), MissingField, "layers"),
    (lambda: ModelProfile("m", (uniform_layer(1, 1.0, 1.0, 1.0),)), InvariantViolation,
     "layers[0].index is 1; layers must be listed in order and indexed consecutively from 0"),
    (lambda: AccuracyPenaltyTable({1: SIDE}), MissingField, "penalties[2]"),
    (lambda: AccuracyPenaltyTable({1: {FULL: 0.0}, 2: SIDE}), MissingField,
     "penalties[1][conv3]"),
    (lambda: table({S3_SKIP: -1.0}), NonPositiveQuantity, "penalties[1][conv3+skip]"),
    (lambda: table({FULL: 0.5}), InvariantViolation,
     "penalties[1][conv3+skip+conv1] must be 0"),
    (lambda: table({S3: 0.5}), InvariantViolation,
     "penalties[1][conv3] must be >= penalties[1][conv3+skip]"),
    (lambda: config(devices=(device(),)), MissingField,
     "devices (need at least a terminal and an edge device)"),
    (lambda: config(model=uniform_model(1)), InvariantViolation,
     "model.layers must contain at least 2 layers"),
    (lambda: config(lambda1=-1.0), NonPositiveQuantity, "lambda1"),
    (lambda: sim_config(arrival_rate=0.0), InvariantViolation,
     "arrival_rate must be a finite number > 0"),
    (lambda: sim_config(service_times=(0.1, 0.1)), InvariantViolation,
     "service_times must be three finite positive stage times"),
    (lambda: sim_config(horizon=float("inf")), InvariantViolation,
     "horizon must be a finite number > 0"),
    (lambda: sim_config(arrival_rate=1e7, horizon=2.0), InvariantViolation,
     "arrival_rate * horizon exceeds 1e+07"),
    (lambda: sim_config(warmup=5.0), InvariantViolation,
     "warmup must be finite and satisfy 0 <= warmup < horizon"),
    (lambda: bn(eps=0.0), ShapeMismatch, "batch norm eps must be > 0"),
    (lambda: bn(var=-np.ones(2)), ShapeMismatch, "batch norm variance must be >= 0"),
    (lambda: BranchSpec(BranchKind.IDENTITY, np.zeros((2, 2, 1, 1)), bn()), ShapeMismatch,
     "identity branch carries no weights"),
    (lambda: BranchSpec(BranchKind.CONV3X3, np.zeros((2, 2, 1, 1)), bn()), ShapeMismatch,
     "conv3x3 branch needs weights shaped [out, in, 3, 3]"),
    (lambda: Kernel3x3(np.zeros((2, 2, 1, 1)), np.zeros(2)), ShapeMismatch,
     "fused kernel must be [out, in, 3, 3], got (2, 2, 1, 1)"),
    (lambda: Kernel3x3(np.zeros((0, 2, 3, 3)), np.zeros(0)), ShapeMismatch,
     "fused kernel needs at least one input and output channel"),
    (lambda: Kernel3x3(np.full((1, 1, 3, 3), np.nan), np.zeros(1)), ShapeMismatch,
     "fused kernel has non-finite entries"),
    (lambda: objective(matrix=np.zeros((2, 3))), DimensionMismatch,
     "matrix must be square, got (2, 3)"),
    (lambda: objective(linear=np.zeros(3)), DimensionMismatch,
     "linear term has shape (3,), expected (2,)"),
    (lambda: objective(split_index=2), DimensionMismatch,
     "split_index=2 must leave both blocks non-empty"),
    (lambda: objective(matrix=np.array([[1.0, 0.5], [0.0, 1.0]])), InvariantViolation,
     "matrix must be symmetric"),
    (lambda: objective(matrix=np.diag([1.0, -1.0])), InvariantViolation,
     "matrix must be positive definite"),
]


@pytest.mark.parametrize("build, error, message", INVALID, ids=[m for _, _, m in INVALID])
def test_validation_error_and_message(build, error, message):
    with pytest.raises(error) as raised:
        build()
    assert str(raised.value) == message
