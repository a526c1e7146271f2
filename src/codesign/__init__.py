"""Co-design planner for two-device edge inference pipelines: roofline
analysis, branch-fusion algebra, latency/accuracy plan search, and a
tandem-queue simulator to validate the analytical model.

The names below are resolved on first use (PEP 562), so ``import codesign``
loads no submodule and the commands that never touch numpy never import it.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "cost_model": ("CostBreakdown", "PartitionPlan", "accuracy_loss", "evaluate_plan",
                   "lagrangian", "latency"),
    "errors": ("CodesignError",),
    "optimizer": ("grid_search", "refine_lambda", "snap_to_boundary"),
    "profiles": ("AccuracyPenaltyTable", "Config", "DeviceProfile", "FusionStrategy",
                 "LayerProfile", "LinkProfile", "ModelProfile", "load_config", "load_device",
                 "total_load"),
    "reparam": ("Kernel3x3", "fold_bn", "fuse", "pad_1x1_to_3x3", "strategy_costs"),
    "roofline": ("Bottleneck", "classify", "effective_rate", "feasibility", "machine_balance",
                 "model_intensity", "sub_intensities"),
    "simulator": ("SimConfig", "SimReport", "run", "validate_against_model"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))
