"""Per-strategy FLOP / byte costs of re-parameterizable convolution blocks.

A block is a bundle of parallel branches (3x3 conv, 1x1 conv, identity
shortcut).  A fusion strategy keeps some of them, and the kept branches
execute as a single fused 3x3 kernel; these costs feed LayerProfile.  The
fusion algebra itself, which needs numpy, is in ``fusion``.  Reference
convolution geometry throughout: stride 1, zero padding that preserves the
spatial size (1 for 3x3 kernels, 0 for 1x1), no groups or dilation.
"""

from __future__ import annotations

from enum import Enum

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

KERNEL_SIZE = {BranchKind.CONV3X3: 3, BranchKind.CONV1X1: 1}


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
            k = KERNEL_SIZE[kind]
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
