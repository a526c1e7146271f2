import json

import numpy as np
import pytest
from scipy.signal import correlate2d

from codesign import reparam
from codesign.errors import ShapeMismatch
from codesign.profiles import FusionStrategy
from codesign.reparam import BatchNorm, BranchKind, BranchSpec

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
    kernel, bias = reparam.fold_bn(branch)
    assert np.array_equal(kernel, w)
    assert np.array_equal(bias, np.zeros(2))


def test_fold_scale_shift():
    eps = 1e-5
    bn = BatchNorm(gamma=np.full(3, 2.0), beta=np.ones(3),
                   mean=np.zeros(3), var=np.full(3, 1.0 - eps), eps=eps)
    dirac = np.eye(3)[:, :, None, None]
    branch = BranchSpec(BranchKind.CONV1X1, dirac, bn)
    kernel, bias = reparam.fold_bn(branch)
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
        kernel, bias = reparam.fold_bn(branch)
        got = oracle_conv(x, kernel, bias)
        want = oracle_branch(x, branch)
        assert reparam.max_rel_error(got, want) < 1e-5


# --- pad_1x1_to_3x3 ---------------------------------------------------------

def test_pad_scalar_kernel():
    padded = reparam.pad_1x1_to_3x3(np.full((1, 1, 1, 1), 5.0))
    expected = np.zeros((1, 1, 3, 3))
    expected[0, 0, 1, 1] = 5.0
    assert np.array_equal(padded, expected)


def test_pad_zero_kernel():
    assert np.array_equal(reparam.pad_1x1_to_3x3(np.zeros((2, 3, 1, 1))),
                          np.zeros((2, 3, 3, 3)))


def test_pad_rejects_non_1x1():
    with pytest.raises(ShapeMismatch):
        reparam.pad_1x1_to_3x3(np.zeros((1, 1, 3, 3)))


def test_padded_kernel_computes_same_convolution():
    rng = np.random.default_rng(6)
    for _ in range(20):
        ch = int(rng.choice([1, 4]))
        kernel = rng.standard_normal((ch, ch, 1, 1))
        x = rng.standard_normal((ch, 6, 6))
        direct = oracle_conv(x, kernel)          # valid-mode 1x1
        padded = oracle_conv(x, reparam.pad_1x1_to_3x3(kernel))  # same-mode 3x3
        assert np.max(np.abs(direct - padded)) < 1e-6


# --- fuse --------------------------------------------------------------------

def make_branches(rng, channels):
    return reparam.random_branches(rng, channels)


def test_fuse_single_branch_with_identity_bn():
    rng = np.random.default_rng(0)
    w = rng.standard_normal((4, 4, 3, 3))
    branches = [
        BranchSpec(BranchKind.CONV3X3, w, identity_bn(4)),
        BranchSpec(BranchKind.CONV1X1, rng.standard_normal((4, 4, 1, 1)), identity_bn(4)),
        BranchSpec(BranchKind.IDENTITY, None, identity_bn(4)),
    ]
    fused = reparam.fuse(branches, S3)
    assert np.allclose(fused.weights, w)
    assert np.allclose(fused.bias, 0.0)


def test_fuse_opposite_branches_cancel():
    w = np.random.default_rng(4).standard_normal((2, 2, 3, 3))
    plus = BranchSpec(BranchKind.CONV3X3, w, identity_bn(2))
    # rig a second bundle with the negated kernel and fuse them pairwise
    minus_kernel, minus_bias = reparam.fold_bn(
        BranchSpec(BranchKind.CONV3X3, -w, identity_bn(2)))
    plus_kernel, plus_bias = reparam.fold_bn(plus)
    assert np.allclose(plus_kernel + minus_kernel, 0.0)
    assert np.allclose(plus_bias + minus_bias, 0.0)


def test_fuse_is_additive_over_branch_sets():
    # fusing all three branches equals the element-wise sum of fusing the
    # 3x3 alone and the (1x1, identity) pair folded separately
    rng = np.random.default_rng(12)
    branches = make_branches(rng, 5)
    total = reparam.fuse(branches, FULL)
    partial = reparam.fuse(branches, S3)
    k1, b1 = reparam.fold_bn(branches[1])
    ki, bi = reparam.fold_bn(branches[2])
    rest_w = reparam.pad_1x1_to_3x3(k1) + reparam.pad_1x1_to_3x3(ki)
    assert np.allclose(total.weights, partial.weights + rest_w)
    assert np.allclose(total.bias, partial.bias + b1 + bi)


def test_fuse_rejects_channel_mismatch():
    rng = np.random.default_rng(1)
    branches = [
        BranchSpec(BranchKind.CONV3X3, rng.standard_normal((4, 4, 3, 3)), identity_bn(4)),
        BranchSpec(BranchKind.CONV1X1, rng.standard_normal((2, 4, 1, 1)), identity_bn(2)),
    ]
    with pytest.raises(ShapeMismatch):
        reparam.fuse(branches, S3_1X1)


def test_fuse_requires_needed_branches():
    rng = np.random.default_rng(2)
    only_3x3 = [BranchSpec(BranchKind.CONV3X3, rng.standard_normal((2, 2, 3, 3)),
                           identity_bn(2))]
    with pytest.raises(ShapeMismatch):
        reparam.fuse(only_3x3, S3_SKIP)


@pytest.mark.parametrize("strategy", list(FusionStrategy))
def test_fused_kernel_matches_branch_sum(strategy):
    # the core equivalence, checked against the scipy reference path on
    # both sides over varying channel counts and spatial sizes
    rng = np.random.default_rng(100 + list(FusionStrategy).index(strategy))
    worst = 0.0
    for _ in range(100):
        ch = int(rng.choice([1, 4, 16]))
        size = int(rng.choice([5, 8, 16]))
        branches = make_branches(rng, ch)
        x = rng.standard_normal((ch, size, size))
        fused = reparam.fuse(branches, strategy)
        got = oracle_conv(x, fused.weights, fused.bias)
        want = sum(oracle_branch(x, b) for b in branches
                   if b.kind in reparam.ACTIVE_BRANCHES[strategy])
        worst = max(worst, reparam.max_rel_error(got, want))
    assert worst <= 1e-5


def test_package_conv_matches_oracle_conv():
    rng = np.random.default_rng(77)
    for k in (1, 3):
        for _ in range(20):
            ch_in, ch_out = int(rng.choice([1, 3, 8])), int(rng.choice([1, 3, 8]))
            w = rng.standard_normal((ch_out, ch_in, k, k))
            b = rng.standard_normal(ch_out)
            x = rng.standard_normal((ch_in, 9, 9))
            assert reparam.max_rel_error(reparam.conv2d(x, w, b),
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
    rng = np.random.default_rng(seed)
    worst = {}
    for strategy in FusionStrategy:
        err = 0.0
        for _ in range(trials):
            ch = int(rng.choice(reparam.EQUIVALENCE_CHANNELS))
            size = int(rng.choice(reparam.EQUIVALENCE_SIZES))
            branches = reparam.random_branches(rng, ch)
            x = rng.standard_normal((ch, size, size))
            fused = reparam.fuse(branches, strategy)
            got = tensordot_conv(x, fused.weights, fused.bias)
            by_kind = {b.kind: b for b in branches}
            want = None
            for kind in reparam.ACTIVE_BRANCHES[strategy]:
                branch = by_kind[kind]
                y = x if kind is BranchKind.IDENTITY else tensordot_conv(x, branch.weight)
                y = reparam.batch_norm(y, branch.bn)
                want = y if want is None else want + y
            scale = max(float(np.max(np.abs(want))), 1e-30)
            err = max(err, float(np.max(np.abs(got - want))) / scale)
        worst[strategy] = err
    return worst


@pytest.mark.parametrize("seed", [0, 1, 7, 614])
def test_equivalence_suite_equals_the_tensordot_path(seed):
    got = reparam.run_equivalence_suite(seed, 100)
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
            got, want = reparam.conv2d(x, w, b), tensordot_conv(x, w, b)
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


def test_identity_needs_square_channels():
    with pytest.raises(ShapeMismatch):
        reparam.strategy_costs(3, 4, 2, 2, S3_SKIP)


def test_rep_block_layer_profile_is_consistent():
    layer = reparam.rep_block_layer(0, 16, 8, 8)
    assert layer.fusible
    assert layer.flops_by_strategy[S3] < layer.flops_by_strategy[FULL]
    assert layer.output_activation_bytes == 4.0 * 16 * 8 * 8
