"""Branch-fusion algebra for re-parameterizable convolution blocks.

A block is a bundle of parallel branches (3x3 conv, 1x1 conv, identity
shortcut), each followed by its own batch norm.  At inference the retained
branches fold into a single 3x3 convolution: batch norm is absorbed into
weights and bias, 1x1 and identity kernels are embedded at the center of a
3x3 kernel, and the branch kernels are summed.

Also computes the per-strategy FLOP / byte costs that feed LayerProfile.
Reference convolution geometry throughout: stride 1, zero padding that
preserves the spatial size (1 for 3x3 kernels, 0 for 1x1), no groups or
dilation.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ShapeMismatch
from .profiles import FusionStrategy, LayerProfile

BYTES_PER_VALUE = 4.0  # fp32 accounting


class BranchKind(Enum):
    CONV3X3 = "conv3x3"
    CONV1X1 = "conv1x1"
    IDENTITY = "identity"


# Branches that stay active under each fusion strategy.
ACTIVE_BRANCHES: dict[FusionStrategy, tuple[BranchKind, ...]] = {
    FusionStrategy.CONV3: (BranchKind.CONV3X3,),
    FusionStrategy.CONV3_SKIP: (BranchKind.CONV3X3, BranchKind.IDENTITY),
    FusionStrategy.CONV3_CONV1: (BranchKind.CONV3X3, BranchKind.CONV1X1),
    FusionStrategy.CONV3_SKIP_CONV1: (
        BranchKind.CONV3X3, BranchKind.IDENTITY, BranchKind.CONV1X1),
}

_KERNEL_SIZE = {BranchKind.CONV3X3: 3, BranchKind.CONV1X1: 1}


class BatchNorm(namedtuple("BatchNorm", "gamma beta mean var eps", defaults=(1e-5,))):
    """Per-output-channel batch norm parameters (inference form)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.eps <= 0:
            raise ShapeMismatch("batch norm eps must be > 0")
        if (self.var < 0).any():
            raise ShapeMismatch("batch norm variance must be >= 0")
        return self


class BranchSpec(namedtuple("BranchSpec", "kind weight bn")):
    """One branch: its ``BranchKind``, its weights ([out_ch, in_ch, k, k];
    None for identity) and its ``BatchNorm``."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.kind is BranchKind.IDENTITY:
            if self.weight is not None:
                raise ShapeMismatch("identity branch carries no weights")
        else:
            k = _KERNEL_SIZE[self.kind]
            if self.weight is None or self.weight.ndim != 4 or self.weight.shape[2:] != (k, k):
                raise ShapeMismatch(
                    f"{self.kind.value} branch needs weights shaped [out, in, {k}, {k}]")
        return self

    @property
    def out_channels(self) -> int:
        return self.bn.gamma.shape[0]

    @property
    def in_channels(self) -> int:
        if self.kind is BranchKind.IDENTITY:
            return self.out_channels
        return self.weight.shape[1]


class Kernel3x3(namedtuple("Kernel3x3", "weights bias")):
    """A plain dense 3x3 convolution: the fused form of a block.  Weights
    are [out_ch, in_ch, 3, 3], the bias [out_ch]."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.weights.ndim != 4 or self.weights.shape[2:] != (3, 3):
            raise ShapeMismatch(f"fused kernel must be [out, in, 3, 3], got {self.weights.shape}")
        if min(self.weights.shape[:2]) < 1:
            raise ShapeMismatch("fused kernel needs at least one input and output channel")
        if not (np.isfinite(self.weights).all() and np.isfinite(self.bias).all()):
            raise ShapeMismatch("fused kernel has non-finite entries")
        return self


# ---------------------------------------------------------------------------
# Folding
# ---------------------------------------------------------------------------

def fold_bn(branch: BranchSpec) -> tuple[np.ndarray, np.ndarray]:
    """Absorb a branch's batch norm into convolution weights and bias.

    The identity branch is first materialized as a Dirac 1x1 kernel so
    every branch folds the same way.
    """
    if branch.kind is BranchKind.IDENTITY:
        weight = np.eye(branch.out_channels)[:, :, None, None]
    else:
        weight = branch.weight
    scale = branch.bn.gamma / np.sqrt(branch.bn.var + branch.bn.eps)
    return weight * scale[:, None, None, None], branch.bn.beta - branch.bn.mean * scale


def pad_1x1_to_3x3(kernel: np.ndarray) -> np.ndarray:
    """Embed a 1x1 kernel at the spatial center of a zero 3x3 kernel."""
    if kernel.ndim != 4 or kernel.shape[2:] != (1, 1):
        raise ShapeMismatch(f"expected a 1x1 kernel, got shape {kernel.shape}")
    out = np.zeros(kernel.shape[:2] + (3, 3), dtype=kernel.dtype)
    out[:, :, 1, 1] = kernel[:, :, 0, 0]
    return out


def _active_branches(branches: list[BranchSpec], strategy: FusionStrategy) -> list[BranchSpec]:
    """The branches ``strategy`` keeps, in ``ACTIVE_BRANCHES`` order: the
    one lookup that ``fuse`` and ``block_forward`` both read a block
    through.  A repeated kind, then a kept kind that is missing, then kept
    branches that disagree on channels raise ``ShapeMismatch``."""
    by_kind = {}
    for branch in branches:
        if branch.kind in by_kind:
            raise ShapeMismatch(f"duplicate {branch.kind.value} branch")
        by_kind[branch.kind] = branch
    active = []
    for kind in ACTIVE_BRANCHES[strategy]:
        if kind not in by_kind:
            raise ShapeMismatch(f"strategy {strategy.value} needs a {kind.value} branch")
        active.append(by_kind[kind])
    shapes = {(b.in_channels, b.out_channels) for b in active}
    if len(shapes) != 1:
        raise ShapeMismatch(f"branches disagree on channels: {sorted(shapes)}")
    return active


def fuse(branches: list[BranchSpec], strategy: FusionStrategy) -> Kernel3x3:
    """Sum the strategy's active branches into one 3x3 kernel + bias."""
    active = _active_branches(branches, strategy)
    out_ch, in_ch = active[0].out_channels, active[0].in_channels
    weights = np.zeros((out_ch, in_ch, 3, 3))
    bias = np.zeros(out_ch)
    for branch in active:
        kernel, b = fold_bn(branch)
        if kernel.shape[2] == 1:
            kernel = pad_1x1_to_3x3(kernel)
        weights = weights + kernel
        bias = bias + b
    return Kernel3x3(weights=weights, bias=bias)


# ---------------------------------------------------------------------------
# Forward evaluation (used by the randomized equivalence suite)
# ---------------------------------------------------------------------------

def conv2d(x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None = None) -> np.ndarray:
    """Dense convolution of x [in_ch, H, W], stride 1, zero padding (k-1)/2.

    Every k x k window of the padded x is one column of an
    [in_ch*k*k, H*W] matrix, built from a single strided view; the output
    is the weights as an [out_ch, in_ch*k*k] matrix times it.  That is the
    operand layout and the ``np.dot`` call of ``np.tensordot`` over the
    windows, so the result is the same to the bit, without the wrappers."""
    out_ch, k = weight.shape[0], weight.shape[-1]
    pad = (k - 1) // 2
    channels, height, width = x.shape
    xp = np.zeros((channels, height + 2 * pad, width + 2 * pad))
    xp[:, pad:pad + height, pad:pad + width] = x
    row, col = xp.strides[1:]
    windows = as_strided(xp, (channels, k, k, height, width), (xp.strides[0], row, col, row, col))
    out = np.dot(weight.reshape(out_ch, -1), windows.reshape(-1, height * width))
    out = out.reshape(out_ch, height, width)
    if bias is not None:
        out += bias[:, None, None]
    return out


def batch_norm(x: np.ndarray, bn: BatchNorm) -> np.ndarray:
    scale = bn.gamma / np.sqrt(bn.var + bn.eps)
    return x * scale[:, None, None] + (bn.beta - bn.mean * scale)[:, None, None]


def branch_forward(x: np.ndarray, branch: BranchSpec) -> np.ndarray:
    if branch.kind is BranchKind.IDENTITY:
        return batch_norm(x, branch.bn)
    return batch_norm(conv2d(x, branch.weight), branch.bn)


def block_forward(x: np.ndarray, branches: list[BranchSpec],
                  strategy: FusionStrategy) -> np.ndarray:
    """Multi-branch forward pass: sum of the active branches' outputs."""
    total = None
    for branch in _active_branches(branches, strategy):
        y = branch_forward(x, branch)
        total = y if total is None else total + y
    return total


def max_rel_error(got: np.ndarray, want: np.ndarray) -> float:
    scale = max(float(np.abs(want).max()), 1e-30)
    return float(np.abs(got - want).max()) / scale


def random_branches(rng: np.random.Generator, channels: int) -> list[BranchSpec]:
    def bn():
        return BatchNorm(
            gamma=rng.uniform(0.5, 1.5, channels),
            beta=rng.standard_normal(channels),
            mean=rng.standard_normal(channels),
            var=rng.uniform(0.25, 1.25, channels),
        )

    return [
        BranchSpec(BranchKind.CONV3X3, rng.standard_normal((channels, channels, 3, 3)), bn()),
        BranchSpec(BranchKind.CONV1X1, rng.standard_normal((channels, channels, 1, 1)), bn()),
        BranchSpec(BranchKind.IDENTITY, None, bn()),
    ]


EQUIVALENCE_CHANNELS = (1, 4, 16)  # a trial's channel count is drawn from these
EQUIVALENCE_SIZES = (5, 8, 16)     # and its square input's side from these


def run_equivalence_suite(seed: int, trials: int) -> dict[FusionStrategy, float]:
    """Randomized check that conv(x, fuse(branches)) matches the branch-sum
    forward pass, over ``trials`` draws per strategy.  Returns the max
    relative error seen per strategy."""
    rng = np.random.default_rng(seed)
    worst = {}
    for strategy in FusionStrategy:
        err = 0.0
        for _ in range(trials):
            # the draws of rng.choice over these tuples, without its wrapper
            ch = EQUIVALENCE_CHANNELS[rng.integers(len(EQUIVALENCE_CHANNELS))]
            size = EQUIVALENCE_SIZES[rng.integers(len(EQUIVALENCE_SIZES))]
            branches = random_branches(rng, ch)
            x = rng.standard_normal((ch, size, size))
            fused = fuse(branches, strategy)
            err = max(err, max_rel_error(
                conv2d(x, fused.weights, fused.bias),
                block_forward(x, branches, strategy)))
        worst[strategy] = err
    return worst


# ---------------------------------------------------------------------------
# Cost accounting
# ---------------------------------------------------------------------------

def strategy_costs(in_ch: int, out_ch: int, height: int, width: int,
                   strategy: FusionStrategy) -> tuple[float, float]:
    """(FLOPs, bytes) of one block under a fusion strategy.

    Arithmetic is summed per retained branch: a kxk convolution costs
    2*k^2*in*out per pixel, the shortcut one add per output element.
    Weight bytes are paid per retained branch, but input/output activation
    traffic is paid once, since the retained branches execute as a single
    fused 3x3 kernel.
    """
    if min(in_ch, out_ch, height, width) < 1:
        raise ShapeMismatch("channel counts and spatial dims must be >= 1")
    pixels = height * width
    flops = 0.0
    weight_bytes = 0.0
    for kind in ACTIVE_BRANCHES[strategy]:
        if kind is BranchKind.IDENTITY:
            if in_ch != out_ch:
                raise ShapeMismatch(
                    f"strategy {strategy.value} keeps the shortcut, which needs in_ch == out_ch")
            flops += out_ch * pixels
        else:
            k = _KERNEL_SIZE[kind]
            flops += 2.0 * k * k * in_ch * out_ch * pixels
            weight_bytes += BYTES_PER_VALUE * k * k * in_ch * out_ch
    data_bytes = weight_bytes + BYTES_PER_VALUE * in_ch * pixels + BYTES_PER_VALUE * out_ch * pixels
    return flops, data_bytes


def rep_block_layer(index: int, channels: int, height: int, width: int) -> LayerProfile:
    """LayerProfile for one fusible block (square channel count, since the
    shortcut must type-check)."""
    flops, data = {}, {}
    for strategy in FusionStrategy:
        flops[strategy], data[strategy] = strategy_costs(channels, channels, height, width, strategy)
    return LayerProfile(
        index=index,
        flops_by_strategy=flops,
        bytes_by_strategy=data,
        output_activation_bytes=BYTES_PER_VALUE * channels * height * width,
        fusible=True,
    )


def plain_conv_layer(index: int, in_ch: int, out_ch: int, height: int, width: int,
                     kernel: int = 3, in_height: int | None = None,
                     in_width: int | None = None) -> LayerProfile:
    """LayerProfile for a fixed (non-fusible) convolution layer; costs are
    identical under every strategy.  height/width are output dims; pass the
    input dims separately for strided layers."""
    pixels = height * width
    in_pixels = (in_height or height) * (in_width or width)
    flops = 2.0 * kernel * kernel * in_ch * out_ch * pixels
    data = (BYTES_PER_VALUE * kernel * kernel * in_ch * out_ch
            + BYTES_PER_VALUE * in_ch * in_pixels + BYTES_PER_VALUE * out_ch * pixels)
    return LayerProfile(
        index=index,
        flops_by_strategy={s: flops for s in FusionStrategy},
        bytes_by_strategy={s: data for s in FusionStrategy},
        output_activation_bytes=BYTES_PER_VALUE * out_ch * pixels,
        fusible=False,
    )
