import functools
import hashlib
import json
import operator
import random

import numpy as np
import pytest
from scipy.signal import correlate2d

from codesign import fusion, reparam
from codesign.errors import ShapeMismatch
from codesign.fusion import BatchNorm, BranchSpec
from codesign.profiles import FusionStrategy
from codesign.reparam import BranchKind

from conftest import FIXTURES, FULL, S3, S3_1X1, S3_SKIP


# --- independent reference implementations (oracle side) -------------------

def oracle_conv(x, weight, bias=None):
    """Per-channel correlate2d convolution, stride 1, shape-preserving pad."""
    k = weight.shape[-1]
    out_ch, in_ch = weight.shape[:2]
    out = np.zeros((out_ch, x.shape[1], x.shape[2]))
    mode = "same" if k == 3 else "valid"
    for o in range(out_ch):
        for i in range(in_ch):
            out[o] += correlate2d(x[i], weight[o, i], mode=mode)
        if bias is not None:
            out[o] += bias[o]
    return out


def oracle_bn(x, bn):
    out = np.empty_like(x)
    for c in range(x.shape[0]):
        out[c] = (x[c] - bn.mean[c]) / np.sqrt(bn.var[c] + bn.eps) * bn.gamma[c] + bn.beta[c]
    return out


def oracle_branch(x, branch):
    if branch.kind is BranchKind.IDENTITY:
        return oracle_bn(x, branch.bn)
    return oracle_bn(oracle_conv(x, branch.weight), branch.bn)


def identity_bn(channels, eps=1e-5):
    return BatchNorm(gamma=np.ones(channels), beta=np.zeros(channels),
                     mean=np.zeros(channels), var=np.full(channels, 1.0 - eps), eps=eps)


# --- fold_bn ---------------------------------------------------------------

def test_fold_identity_bn_is_noop():
    w = np.arange(2 * 2 * 9, dtype=float).reshape(2, 2, 3, 3)
    branch = BranchSpec(BranchKind.CONV3X3, w, identity_bn(2))
    kernel, bias = fusion.fold_bn(branch)
    assert np.array_equal(kernel, w)
    assert np.array_equal(bias, np.zeros(2))


def test_fold_scale_shift():
    eps = 1e-5
    bn = BatchNorm(gamma=np.full(3, 2.0), beta=np.ones(3),
                   mean=np.zeros(3), var=np.full(3, 1.0 - eps), eps=eps)
    dirac = np.eye(3)[:, :, None, None]
    branch = BranchSpec(BranchKind.CONV1X1, dirac, bn)
    kernel, bias = fusion.fold_bn(branch)
    assert np.allclose(kernel, 2.0 * dirac)
    assert np.allclose(bias, np.ones(3))


def test_folded_branch_matches_conv_then_bn():
    rng = np.random.default_rng(31)
    for _ in range(50):
        ch = int(rng.choice([1, 3, 8]))
        branch = BranchSpec(
            BranchKind.CONV3X3, rng.standard_normal((ch, ch, 3, 3)),
            BatchNorm(rng.uniform(0.5, 1.5, ch), rng.standard_normal(ch),
                      rng.standard_normal(ch), rng.uniform(0.2, 1.5, ch)))
        x = rng.standard_normal((ch, 7, 7))
        kernel, bias = fusion.fold_bn(branch)
        got = oracle_conv(x, kernel, bias)
        want = oracle_branch(x, branch)
        assert fusion.max_rel_error(got, want) < 1e-5


# --- pad_1x1_to_3x3 ---------------------------------------------------------

def test_pad_scalar_kernel():
    padded = fusion.pad_1x1_to_3x3(np.full((1, 1, 1, 1), 5.0))
    expected = np.zeros((1, 1, 3, 3))
    expected[0, 0, 1, 1] = 5.0
    assert np.array_equal(padded, expected)


def test_pad_zero_kernel():
    assert np.array_equal(fusion.pad_1x1_to_3x3(np.zeros((2, 3, 1, 1))),
                          np.zeros((2, 3, 3, 3)))


def test_pad_rejects_non_1x1():
    with pytest.raises(ShapeMismatch):
        fusion.pad_1x1_to_3x3(np.zeros((1, 1, 3, 3)))


def test_padded_kernel_computes_same_convolution():
    rng = np.random.default_rng(6)
    for _ in range(20):
        ch = int(rng.choice([1, 4]))
        kernel = rng.standard_normal((ch, ch, 1, 1))
        x = rng.standard_normal((ch, 6, 6))
        direct = oracle_conv(x, kernel)          # valid-mode 1x1
        padded = oracle_conv(x, fusion.pad_1x1_to_3x3(kernel))  # same-mode 3x3
        assert np.max(np.abs(direct - padded)) < 1e-6


# --- fuse --------------------------------------------------------------------

def make_branches(rng, channels):
    return fusion.random_branches(rng, channels, 0)[0]


def test_random_branches_map_one_draw_in_order():
    # the stream fuse-check draws from: hashed, so a Python whose
    # random.Random changes its bytes fails here first
    assert hashlib.sha256(random.Random(614).randbytes(4096)).hexdigest() == (
        "a467f4ec4d7daab9740213dff0e5174bcbc2b4bc6f832bd05faf03c2dd1c5e50")
    c, size = 4, 5
    branches, x = fusion.random_branches(random.Random(614), c, size)
    raw = random.Random(614).randbytes(4 * (10 * c * c + 12 * c + c * size * size))
    u = [int.from_bytes(raw[i:i + 4], "little") / 2 ** 31 - 1 for i in range(0, len(raw), 4)]
    assert [b.kind for b in branches] == [BranchKind.CONV3X3, BranchKind.CONV1X1,
                                          BranchKind.IDENTITY]
    drawn = [branches[0].weight, branches[1].weight]
    for b in branches:
        drawn += [(b.bn.gamma - 1.0) * 2, b.bn.beta, b.bn.mean, (b.bn.var - 0.75) * 2]
    drawn.append(x)
    assert x.shape == (c, size, size)
    assert np.concatenate([a.ravel() for a in drawn]).tolist() == u
    for b in branches:
        assert 0.5 <= b.bn.gamma.min() and b.bn.gamma.max() < 1.5
        assert 0.25 <= b.bn.var.min() and b.bn.var.max() < 1.25
    # x comes last, so the block is the same whatever the input's size
    alone, empty = fusion.random_branches(random.Random(614), c, 0)
    assert empty.shape == (c, 0, 0)
    for a, b in zip(alone, branches):
        assert np.array_equal(a.weight, b.weight) if b.weight is not None else a.weight is None
        assert all(np.array_equal(p, q) for p, q in zip(a.bn, b.bn))


def test_fuse_single_branch_with_identity_bn():
    rng = np.random.default_rng(0)
    w = rng.standard_normal((4, 4, 3, 3))
    branches = [
        BranchSpec(BranchKind.CONV3X3, w, identity_bn(4)),
        BranchSpec(BranchKind.CONV1X1, rng.standard_normal((4, 4, 1, 1)), identity_bn(4)),
        BranchSpec(BranchKind.IDENTITY, None, identity_bn(4)),
    ]
    fused = fusion.fuse(branches, S3)
    assert np.allclose(fused.weights, w)
    assert np.allclose(fused.bias, 0.0)


def test_fuse_opposite_branches_cancel():
    w = np.random.default_rng(4).standard_normal((2, 2, 3, 3))
    plus = BranchSpec(BranchKind.CONV3X3, w, identity_bn(2))
    # rig a second bundle with the negated kernel and fuse them pairwise
    minus_kernel, minus_bias = fusion.fold_bn(
        BranchSpec(BranchKind.CONV3X3, -w, identity_bn(2)))
    plus_kernel, plus_bias = fusion.fold_bn(plus)
    assert np.allclose(plus_kernel + minus_kernel, 0.0)
    assert np.allclose(plus_bias + minus_bias, 0.0)


def test_fuse_is_additive_over_branch_sets():
    # fusing all three branches equals the element-wise sum of fusing the
    # 3x3 alone and the (1x1, identity) pair folded separately
    branches = make_branches(random.Random(12), 5)
    total = fusion.fuse(branches, FULL)
    partial = fusion.fuse(branches, S3)
    k1, b1 = fusion.fold_bn(branches[1])
    ki, bi = fusion.fold_bn(branches[2])
    rest_w = fusion.pad_1x1_to_3x3(k1) + fusion.pad_1x1_to_3x3(ki)
    assert np.allclose(total.weights, partial.weights + rest_w)
    assert np.allclose(total.bias, partial.bias + b1 + bi)


@pytest.mark.parametrize("strategy", list(FusionStrategy), ids=lambda s: s.value)
def test_fuse_and_block_forward_add_the_branches_in_order(strategy):
    # fuse-check prints the worst errors themselves, and the tensordot suite
    # below sums through these same two functions, so their order is pinned
    # here: each is its terms added left to right in ACTIVE_BRANCHES order
    branches, x = fusion.random_branches(random.Random(list(FusionStrategy).index(strategy)),
                                         4, 5)
    by_kind = {b.kind: b for b in branches}
    active = [by_kind[kind] for kind in reparam.ACTIVE_BRANCHES[strategy]]
    folded = [fusion.fold_bn(b) for b in active]
    kernels = [fusion.pad_1x1_to_3x3(k) if k.shape[2] == 1 else k for k, _ in folded]
    outputs = [fusion.batch_norm(x if b.weight is None else fusion.conv2d(x, b.weight), b.bn)
               for b in active]
    fused = fusion.fuse(branches, strategy)
    assert np.array_equal(fused.weights, functools.reduce(operator.add, kernels))
    assert np.array_equal(fused.bias, functools.reduce(operator.add, [b for _, b in folded]))
    assert np.array_equal(fusion.block_forward(x, branches, strategy),
                          functools.reduce(operator.add, outputs))


def forward_on_ones(branches, strategy):
    """``block_forward`` of an all-ones input sized for the first branch."""
    x = np.ones((branches[0].in_channels, 5, 5))
    return fusion.block_forward(x, branches, strategy)


# fuse and the branch-sum pass it is checked against read a block the same way
BOTH_PASSES = pytest.mark.parametrize("read_block", [fusion.fuse, forward_on_ones],
                                      ids=["fuse", "block_forward"])


@BOTH_PASSES
@pytest.mark.parametrize("out_ch", [1, 2])
def test_fuse_rejects_channel_mismatch(read_block, out_ch):
    # a 1-channel branch would broadcast onto the 4-channel sum unnoticed
    rng = np.random.default_rng(1)
    branches = [
        BranchSpec(BranchKind.CONV3X3, rng.standard_normal((4, 4, 3, 3)), identity_bn(4)),
        BranchSpec(BranchKind.CONV1X1, rng.standard_normal((out_ch, 4, 1, 1)),
                   identity_bn(out_ch)),
    ]
    with pytest.raises(ShapeMismatch) as err:
        read_block(branches, S3_1X1)
    assert str(err.value) == f"branches disagree on channels: [(4, {out_ch}), (4, 4)]"


@BOTH_PASSES
def test_fuse_requires_needed_branches(read_block):
    rng = np.random.default_rng(2)
    only_3x3 = [BranchSpec(BranchKind.CONV3X3, rng.standard_normal((2, 2, 3, 3)),
                           identity_bn(2))]
    with pytest.raises(ShapeMismatch) as err:
        read_block(only_3x3, S3_SKIP)
    assert str(err.value) == "strategy conv3+skip needs a identity branch"


@BOTH_PASSES
@pytest.mark.parametrize("strategy", [S3, FULL], ids=lambda s: s.value)
def test_fuse_rejects_a_repeated_kind(read_block, strategy):
    # under the full structure the repeat is named before the missing
    # identity branch and the 2-channel conv1x1, as fuse checks in that order
    rng = np.random.default_rng(3)
    branches = [
        BranchSpec(BranchKind.CONV3X3, rng.standard_normal((4, 4, 3, 3)), identity_bn(4)),
        BranchSpec(BranchKind.CONV1X1, rng.standard_normal((2, 4, 1, 1)), identity_bn(2)),
        BranchSpec(BranchKind.CONV3X3, rng.standard_normal((4, 4, 3, 3)), identity_bn(4)),
    ]
    with pytest.raises(ShapeMismatch) as err:
        read_block(branches, strategy)
    assert str(err.value) == "duplicate conv3x3 branch"


@pytest.mark.parametrize("strategy", list(FusionStrategy))
def test_fused_kernel_matches_branch_sum(strategy):
    # the core equivalence, checked against the scipy reference path on
    # both sides over varying channel counts and spatial sizes
    rng = random.Random(100 + list(FusionStrategy).index(strategy))
    worst = 0.0
    for _ in range(100):
        ch = rng.choice([1, 4, 16])
        branches, x = fusion.random_branches(rng, ch, rng.choice([5, 8, 16]))
        fused = fusion.fuse(branches, strategy)
        got = oracle_conv(x, fused.weights, fused.bias)
        want = sum(oracle_branch(x, b) for b in branches
                   if b.kind in reparam.ACTIVE_BRANCHES[strategy])
        worst = max(worst, fusion.max_rel_error(got, want))
    assert worst <= 1e-5


def test_package_conv_matches_oracle_conv():
    rng = np.random.default_rng(77)
    for k in (1, 3):
        for _ in range(20):
            ch_in, ch_out = int(rng.choice([1, 3, 8])), int(rng.choice([1, 3, 8]))
            w = rng.standard_normal((ch_out, ch_in, k, k))
            b = rng.standard_normal(ch_out)
            x = rng.standard_normal((ch_in, 9, 9))
            assert fusion.max_rel_error(fusion.conv2d(x, w, b),
                                         oracle_conv(x, w, b)) < 1e-12


# --- the contraction, bit for bit --------------------------------------------
# fuse-check prints the worst errors themselves, so conv2d and the suite must
# give the floats of the plain numpy path, not just close ones.  These copy
# that path: tensordot over sliding_window_view, rng.choice and np.max.

def tensordot_conv(x, weight, bias=None):
    k = weight.shape[-1]
    pad = (k - 1) // 2
    channels, height, width = x.shape
    xp = np.zeros((channels, height + 2 * pad, width + 2 * pad))
    xp[:, pad:pad + height, pad:pad + width] = x
    windows = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(1, 2))
    out = np.tensordot(weight, windows, axes=([1, 2, 3], [0, 3, 4]))
    if bias is not None:
        out += bias[:, None, None]
    return out


def tensordot_equivalence_suite(seed, trials):
    rng = random.Random(seed)
    worst = {}
    for strategy in FusionStrategy:
        err = 0.0
        for _ in range(trials):
            ch = rng.choice(fusion.EQUIVALENCE_CHANNELS)
            size = rng.choice(fusion.EQUIVALENCE_SIZES)
            branches, x = fusion.random_branches(rng, ch, size)
            fused = fusion.fuse(branches, strategy)
            got = tensordot_conv(x, fused.weights, fused.bias)
            by_kind = {b.kind: b for b in branches}
            want = None
            for kind in reparam.ACTIVE_BRANCHES[strategy]:
                branch = by_kind[kind]
                y = x if kind is BranchKind.IDENTITY else tensordot_conv(x, branch.weight)
                y = fusion.batch_norm(y, branch.bn)
                want = y if want is None else want + y
            scale = max(float(np.max(np.abs(want))), 1e-30)
            err = max(err, float(np.max(np.abs(got - want))) / scale)
        worst[strategy] = err
    return worst


@pytest.mark.parametrize("seed", [0, 1, 7, 614])
def test_equivalence_suite_equals_the_tensordot_path(seed):
    got = fusion.run_equivalence_suite(seed, 100)
    want = tensordot_equivalence_suite(seed, 100)
    assert {s: repr(e) for s, e in got.items()} == {s: repr(e) for s, e in want.items()}


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("with_bias", [False, True], ids=["no-bias", "bias"])
@pytest.mark.parametrize("height, width", [(1, 1), (1, 7), (9, 4), (3, 12), (16, 16)])
def test_conv2d_equals_the_tensordot_path_bit_for_bit(k, with_bias, height, width):
    rng = np.random.default_rng(k * 1000 + height * 100 + width)
    for ch_in in range(1, 17):
        for ch_out in (ch_in, 17 - ch_in):
            w = rng.standard_normal((ch_out, ch_in, k, k))
            b = rng.standard_normal(ch_out) if with_bias else None
            x = rng.standard_normal((ch_in, height, width))
            got, want = fusion.conv2d(x, w, b), tensordot_conv(x, w, b)
            assert got.shape == want.shape == (ch_out, height, width)
            assert got.tobytes() == want.tobytes(), (ch_in, ch_out)


# --- strategy costs -----------------------------------------------------------

def test_minimal_3x3_flops():
    flops, _ = reparam.strategy_costs(1, 1, 1, 1, S3)
    assert flops == 18.0  # 2 * 9 * 1 * 1 * 1


def test_conv3_plus_conv1_flop_count():
    flops, _ = reparam.strategy_costs(64, 64, 56, 56, S3_1X1)
    assert flops == 2 * (9 + 1) * 64 * 64 * 56 * 56


def test_costs_match_loop_counting_oracle():
    # count multiply-accumulates one output element at a time on a tiny case
    in_ch, out_ch, h, w = 2, 3, 4, 5

    def loop_count(kernel):
        macs = 0
        for _o in range(out_ch):
            for _y in range(h):
                for _x in range(w):
                    macs += in_ch * kernel * kernel
        return 2 * macs

    want = loop_count(3) + loop_count(1)
    flops, _ = reparam.strategy_costs(in_ch, out_ch, h, w, S3_1X1)
    assert flops == want


def test_costs_monotone_in_branch_count():
    order = [S3, S3_SKIP, FULL]
    for dims in [(1, 1, 1), (4, 8, 8), (16, 16, 16)]:
        ch, h, w = dims
        costs = [reparam.strategy_costs(ch, ch, h, w, s) for s in order]
        for (f_a, b_a), (f_b, b_b) in zip(costs, costs[1:]):
            assert f_a <= f_b and b_a <= b_b
        f3, b3 = reparam.strategy_costs(ch, ch, h, w, S3)
        f1, b1 = reparam.strategy_costs(ch, ch, h, w, S3_1X1)
        assert f3 <= f1 and b3 <= b1


def test_full_fusion_strictly_lowers_intensity():
    # collapsing any multi-branch block to the single fused 3x3 kernel drops
    # operational intensity (the fixture table shows the same direction)
    for ch, h in [(2, 4), (16, 8), (64, 56)]:
        fused_f, fused_b = reparam.strategy_costs(ch, ch, h, h, S3)
        for strategy in (S3_SKIP, S3_1X1, FULL):
            multi_f, multi_b = reparam.strategy_costs(ch, ch, h, h, strategy)
            assert fused_f / fused_b < multi_f / multi_b


def test_fixture_table_shows_uniform_intensity_decrease():
    table = json.loads((FIXTURES / "model_intensities.json").read_text())
    assert len(table["models"]) == 8
    for row in table["models"]:
        assert row["fused_intensity"] < row["original_intensity"]
    by_name = {r["name"]: r for r in table["models"]}
    assert by_name["RepVGG"]["original_intensity"] == 19.81
    assert by_name["RepVGG"]["fused_intensity"] == 14.29
    assert by_name["Rep-GoogLeNet"]["fused_intensity"] == 24.89


@pytest.mark.parametrize("dims", [(0, 4, 2, 2), (4, 4, 2, 0)], ids=["in_ch", "width"])
def test_costs_reject_an_empty_dimension(dims):
    with pytest.raises(ShapeMismatch) as err:
        reparam.strategy_costs(*dims, S3)
    assert str(err.value) == "channel counts and spatial dims must be >= 1"


def test_identity_needs_square_channels():
    with pytest.raises(ShapeMismatch):
        reparam.strategy_costs(3, 4, 2, 2, S3_SKIP)


def test_rep_block_layer_profile_is_consistent():
    layer = reparam.rep_block_layer(0, 16, 8, 8)
    assert layer.fusible
    assert layer.flops_by_strategy[S3] < layer.flops_by_strategy[FULL]
    assert layer.output_activation_bytes == 4.0 * 16 * 8 * 8
