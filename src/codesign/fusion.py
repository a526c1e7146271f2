"""Branch-fusion algebra for re-parameterizable convolution blocks.

A block is a bundle of parallel branches (3x3 conv, 1x1 conv, identity
shortcut), each followed by its own batch norm.  At inference the retained
branches fold into a single 3x3 convolution: batch norm is absorbed into
weights and bias, 1x1 and identity kernels are embedded at the center of a
3x3 kernel, and the branch kernels are summed.

Reference convolution geometry throughout: stride 1, zero padding that
preserves the spatial size (1 for 3x3 kernels, 0 for 1x1), no groups or
dilation.  Only ``fuse-check`` runs this module; the per-strategy costs
that feed LayerProfile are in ``reparam``, which loads no numpy.
"""

from __future__ import annotations

import random
from collections import namedtuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ShapeMismatch
from .profiles import FusionStrategy
from .reparam import ACTIVE_BRANCHES, KERNEL_SIZE, BranchKind


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
            k = KERNEL_SIZE[self.kind]
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
    kernels, biases = zip(*map(fold_bn, _active_branches(branches, strategy)))
    return Kernel3x3(weights=sum(pad_1x1_to_3x3(k) if k.shape[2] == 1 else k for k in kernels),
                     bias=sum(biases))


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


def block_forward(x: np.ndarray, branches: list[BranchSpec],
                  strategy: FusionStrategy) -> np.ndarray:
    """Multi-branch forward pass: sum of the active branches' outputs."""
    return sum(batch_norm(x if b.kind is BranchKind.IDENTITY else conv2d(x, b.weight), b.bn)
               for b in _active_branches(branches, strategy))


def max_rel_error(got: np.ndarray, want: np.ndarray) -> float:
    scale = max(float(np.abs(want).max()), 1e-30)
    return float(np.abs(got - want).max()) / scale


def random_branches(rng: random.Random, channels: int,
                    size: int) -> tuple[list[BranchSpec], np.ndarray]:
    """A random block of ``channels`` channels (3x3, 1x1 and identity
    branches) and an input x [channels, size, size] for it, from one draw of
    ``rng``.  The draw's 4-byte little-endian words w map to u = w/2**31 - 1,
    uniform on [-1, 1) and the same on every platform; they are, in order,
    the 3x3 weights, the 1x1 weights, each branch's batch norm (gamma
    1 + u/2 on [0.5, 1.5), beta u, mean u, var 0.75 + u/2 on [0.25, 1.25))
    and x.  So the block does not depend on ``size``."""
    c, n3, n1, nbn = channels, 9 * channels * channels, channels * channels, 12 * channels
    words = np.frombuffer(rng.randbytes(4 * (n3 + n1 + nbn + c * size * size)), "<u4")
    u = words * 2.0 ** -31 - 1.0
    bn3, bn1, bn_id = (BatchNorm(gamma=1.0 + g / 2, beta=b, mean=m, var=0.75 + v / 2)
                       for g, b, m, v in u[n3 + n1:n3 + n1 + nbn].reshape(3, 4, c))
    return [
        BranchSpec(BranchKind.CONV3X3, u[:n3].reshape(c, c, 3, 3), bn3),
        BranchSpec(BranchKind.CONV1X1, u[n3:n3 + n1].reshape(c, c, 1, 1), bn1),
        BranchSpec(BranchKind.IDENTITY, None, bn_id),
    ], u[n3 + n1 + nbn:].reshape(c, size, size)


EQUIVALENCE_CHANNELS = (1, 4, 16)  # a trial's channel count is drawn from these
EQUIVALENCE_SIZES = (5, 8, 16)     # and its square input's side from these


def run_equivalence_suite(seed: int, trials: int) -> dict[FusionStrategy, float]:
    """Randomized check that conv(x, fuse(branches)) matches the branch-sum
    forward pass, over ``trials`` draws per strategy from
    ``random.Random(seed)``: each trial's channel count and input side, then
    its block and input (``random_branches``).  Returns the max relative
    error seen per strategy."""
    rng = random.Random(seed)
    worst = {}
    for strategy in FusionStrategy:
        err = 0.0
        for _ in range(trials):
            ch = rng.choice(EQUIVALENCE_CHANNELS)
            branches, x = random_branches(rng, ch, rng.choice(EQUIVALENCE_SIZES))
            fused = fuse(branches, strategy)
            err = max(err, max_rel_error(
                conv2d(x, fused.weights, fused.bias),
                block_forward(x, branches, strategy)))
        worst[strategy] = err
    return worst
