"""Co-design planner for two-device edge inference pipelines: roofline
analysis, branch-fusion algebra, latency/accuracy plan search, and a
tandem-queue simulator to validate the analytical model."""

from .cost_model import CostBreakdown, PartitionPlan, accuracy_loss, evaluate_plan, lagrangian, latency
from .errors import CodesignError
from .optimizer import grid_search, refine_lambda, snap_to_boundary
from .profiles import (
    AccuracyPenaltyTable,
    Config,
    DeviceProfile,
    FusionStrategy,
    LayerProfile,
    LinkProfile,
    ModelProfile,
    load_config,
    load_device,
    total_load,
)
from .reparam import Kernel3x3, fold_bn, fuse, pad_1x1_to_3x3, strategy_costs
from .roofline import Bottleneck, classify, effective_rate, feasibility, machine_balance, model_intensity, sub_intensities
from .simulator import SimConfig, SimReport, run, validate_against_model

__version__ = "0.1.0"
