import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wst import loss as loss_module
from wst.exceptions import BlankInTranscript, NoPath, OutOfVocabulary, ShapeMismatch
from wst.graphs import (LN_HALF, PenaltyConfig, _grid_lattice, build_rnnt_lattice, build_wst_lattice,
                        penalties_for, star_log_prob)
from wst.loss import (_BLOCK_BYTES, _grid_loss_grad, _write_grad, batched_grid_loss, log_softmax,
                      rnnt_loss, wst_loss)
from wst.graphs import star_log_prob as _star_rows  # the name reference_grid_loss uses
from wst.oracle import brute_force_loss
from wst.vocab import Vocab
from wst.wfst import NEG_INF, arc_posteriors, total_weight

NO_PENALTY = PenaltyConfig(0.0, 0.0)
INF_PENALTY = PenaltyConfig(NEG_INF, NEG_INF)


def random_instance(rng, t_len, u_len, v_size):
    logits = rng.standard_normal((t_len, u_len + 1, v_size))
    tokens = [int(x) for x in rng.integers(1, v_size, size=u_len)]
    return logits, tokens


class TestLogSoftmax:
    def test_uniform_row(self):
        out = log_softmax(np.zeros((1, 1, 3)))
        assert np.allclose(out, math.log(1 / 3), atol=1e-12)

    def test_max_shift_no_overflow(self):
        out = log_softmax(np.asarray([1000.0, 0.0, 0.0]))
        assert out[0] == pytest.approx(0.0, abs=1e-12)
        assert out[1] == pytest.approx(-1000.0)
        assert np.all(np.isfinite(out))

    def test_derived_row(self):
        out = log_softmax(np.asarray([1.0, 2.0, 3.0]))
        assert np.allclose(out, [-2.407606, -1.407606, -0.407606], atol=1e-6)

    def test_rows_normalized(self):
        rng = np.random.default_rng(1)
        out = log_softmax(rng.standard_normal((4, 3, 5)))
        sums = np.log(np.exp(out).sum(-1))
        assert np.abs(sums).max() <= 1e-12

    @pytest.mark.parametrize("shape, expected", [
        ((0, 5), np.zeros((0, 5))),
        ((2, 0, 4), np.zeros((2, 0, 4))),
    ])
    def test_edge_shapes(self, shape, expected):
        out = log_softmax(np.full(shape, 2.5))
        assert out.shape == expected.shape and np.array_equal(out, expected)

    @pytest.mark.parametrize("shape", [(3, 0), (0,), (2, 0, 0)])
    def test_empty_rows_rejected(self, shape):
        with pytest.raises(ShapeMismatch, match="nonempty axis"):
            log_softmax(np.zeros(shape))

    @pytest.mark.parametrize("z", [2.5, np.inf, [np.nan, 1.0], [np.inf, 1.0], [-np.inf, -np.inf]],
                             ids=["0-d", "0-d inf", "nan", "+inf", "all -inf"])
    def test_unnormalisable_rejected(self, z):
        with pytest.raises(ShapeMismatch):
            log_softmax(z)

    def test_bad_row_in_a_later_block_rejected(self):
        z = np.zeros((3 * _BLOCK_BYTES // 32 + 1, 4))  # three blocks and one row
        z[-1, 2] = np.nan
        with pytest.raises(ShapeMismatch, match="logits must be finite"):
            log_softmax(z)

    def test_neg_inf_entry_under_a_finite_maximum_rejected(self):
        """Any non-finite entry is rejected, as every loss entry point rejects it."""
        with pytest.raises(ShapeMismatch, match="logits must be finite"):
            log_softmax(np.asarray([[0.0, 1.0], [2.0, -np.inf]]))


class TestRnntLoss:
    def test_worked_example(self):
        loss, _ = rnnt_loss(np.zeros((2, 2, 3)), [1])
        assert loss == pytest.approx(-math.log(2 / 27), abs=1e-9)

    def test_single_path(self):
        rng = np.random.default_rng(2)
        z = rng.standard_normal((1, 1, 4))
        loss, _ = rnnt_loss(z, [])
        assert loss == pytest.approx(-log_softmax(z)[0, 0, 0], abs=1e-12)

    def test_matches_lattice_route(self):
        rng = np.random.default_rng(3)
        z, toks = random_instance(rng, 3, 2, 4)
        loss, grad = rnnt_loss(z, toks)
        g = build_rnnt_lattice(Vocab(4), toks, log_softmax(z))
        assert loss == pytest.approx(-total_weight(g), abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            rnnt_loss(np.zeros((2, 2, 3)), [1, 2])
        with pytest.raises(ShapeMismatch):
            rnnt_loss(np.zeros((2, 3)), [1])


class TestWstLoss:
    def test_worked_example(self):
        loss, _ = wst_loss(np.zeros((2, 2, 3)), [1], NO_PENALTY)
        assert loss == pytest.approx(-math.log(8 / 27), abs=1e-9)

    def test_reduction_to_rnnt(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            z, toks = random_instance(rng, 3, 2, 5)
            l_std, g_std = rnnt_loss(z, toks)
            l_ws, g_ws = wst_loss(z, toks, INF_PENALTY)
            assert abs(l_ws - l_std) <= 1e-12
            assert np.array_equal(g_ws, g_std)

    def test_dominance(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            z, toks = random_instance(rng, 3, 2, 4)
            assert wst_loss(z, toks, NO_PENALTY)[0] < rnnt_loss(z, toks)[0]

    def test_monotone_in_penalties(self):
        rng = np.random.default_rng(6)
        z, toks = random_instance(rng, 3, 2, 4)
        grid = [-5.0, -2.0, -0.69, 0.0]
        for lam2 in grid:
            losses = [wst_loss(z, toks, PenaltyConfig(lam1, lam2))[0] for lam1 in grid]
            assert all(a >= b - 1e-12 for a, b in zip(losses, losses[1:]))
        for lam1 in grid:
            losses = [wst_loss(z, toks, PenaltyConfig(lam1, lam2))[0] for lam2 in grid]
            assert all(a >= b - 1e-12 for a, b in zip(losses, losses[1:]))

    def test_matches_lattice_route(self):
        rng = np.random.default_rng(7)
        z, toks = random_instance(rng, 3, 2, 4)
        p = PenaltyConfig(-0.4, -1.1)
        loss, _ = wst_loss(z, toks, p)
        g = build_wst_lattice(Vocab(4), toks, log_softmax(z), p)
        assert loss == pytest.approx(-total_weight(g), abs=1e-12)


class TestOracleEquivalence:
    @pytest.mark.parametrize("v_size", [2, 3, 5])
    def test_small_grid(self, v_size):
        rng = np.random.default_rng(v_size)
        for t_len in range(1, 4):
            for u_len in range(0, 3):
                if v_size == 2 and u_len > 0:
                    tokens = [1] * u_len
                else:
                    tokens = [int(x) for x in rng.integers(1, v_size, size=u_len)]
                z = rng.standard_normal((t_len, u_len + 1, v_size))
                assert rnnt_loss(z, tokens)[0] == pytest.approx(
                    brute_force_loss(z, tokens), abs=1e-10)
                p = PenaltyConfig(-0.69, -0.69)
                assert wst_loss(z, tokens, p)[0] == pytest.approx(
                    brute_force_loss(z, tokens, "wst", p), abs=1e-10)


class TestGradients:
    @pytest.mark.parametrize("criterion", ["rnnt", "wst"])
    def test_finite_differences(self, criterion):
        rng = np.random.default_rng(8)
        p = PenaltyConfig(-0.5, -1.0)
        for _ in range(5):
            t_len, u_len, v_size = int(rng.integers(1, 4)), int(rng.integers(0, 4)), 4
            z, toks = random_instance(rng, t_len, u_len, v_size)
            if criterion == "rnnt":
                f = lambda zz: rnnt_loss(zz, toks)[0]
                _, grad = rnnt_loss(z, toks)
            else:
                f = lambda zz: wst_loss(zz, toks, p)[0]
                _, grad = wst_loss(z, toks, p)
            h = 1e-5
            for idx in np.ndindex(z.shape):
                zp = z.copy()
                zp[idx] += h
                zm = z.copy()
                zm[idx] -= h
                fd = (f(zp) - f(zm)) / (2 * h)
                denom = max(abs(fd), abs(grad[idx]), 1e-8)
                assert abs(fd - grad[idx]) / denom <= 1e-4

    def test_grad_rows_sum_to_zero(self):
        rng = np.random.default_rng(9)
        z, toks = random_instance(rng, 3, 2, 5)
        for _, grad in (rnnt_loss(z, toks), wst_loss(z, toks, NO_PENALTY)):
            assert np.abs(grad.sum(-1)).max() <= 1e-8

    def test_softmax_null_direction(self):
        rng = np.random.default_rng(10)
        z, toks = random_instance(rng, 3, 2, 4)
        shift = z + rng.standard_normal((3, 3, 1))  # constant per row
        assert rnnt_loss(shift, toks)[0] == pytest.approx(rnnt_loss(z, toks)[0], abs=1e-10)
        assert wst_loss(shift, toks, NO_PENALTY)[0] == pytest.approx(
            wst_loss(z, toks, NO_PENALTY)[0], abs=1e-10)

    @pytest.mark.parametrize("criterion", ["rnnt", "wst"])
    def test_logprob_level_gradient_is_occupancy(self, criterion):
        # a star arc's weight depends on its row only through the blank
        # log-probability, so its occupancy reaches the blank column times
        # d(star)/d(lp_blank) = -p_blank / (1 - p_blank); with blank boosted
        # that factor is up to e^30, so a bypass occupancy formed as a
        # difference of its twin's and the plain arc's loses its digits
        rng = np.random.default_rng(11)
        for (t_len, u_len, v_size), boost in itertools.product(((2, 1, 3), (3, 2, 2), (4, 3, 5)), (0.0, 20.0, 30.0)):
            z, toks = random_instance(rng, t_len, u_len, v_size)
            z[..., 0] += boost
            _, grad_lp = batched_grid_loss(z[None], [toks], criterion, grad_wrt="logprobs")
            lp = log_softmax(z)
            g = _grid_lattice(Vocab(v_size), toks, lp, penalties_for(criterion))
            occ = np.zeros_like(lp)
            for a, p in zip(g.arcs, arc_posteriors(g)):
                if a.frame is None:
                    continue
                row = occ[a.frame, a.position]
                if a.label == v_size:  # the star
                    blank = lp[a.frame, a.position, 0]
                    row[0] -= p * math.exp(blank) / -math.expm1(blank)
                else:
                    row[a.label] += p
            assert np.allclose(grad_lp[0], -occ, rtol=1e-10, atol=0.0)


class TestBatchLoss:
    def test_batched_grid_matches_single_calls(self):
        # alpha and beta come from one sweep over the stacked planes, so a
        # wrong row split shows up as a mismatch against the B=1 calls
        rng = np.random.default_rng(15)
        for b_sz, t_len, u_len in ((2, 3, 3), (3, 5, 3), (4, 3, 6), (5, 4, 4), (5, 7, 3)):
            zs = rng.standard_normal((b_sz, t_len, u_len + 1, 6))
            ys = rng.integers(1, 6, size=(b_sz, u_len))
            for criterion in ("rnnt", "wst"):
                losses, grads = batched_grid_loss(zs, ys, criterion, NO_PENALTY)
                for i in range(b_sz):
                    if criterion == "rnnt":
                        l, g = rnnt_loss(zs[i], list(ys[i]))
                    else:
                        l, g = wst_loss(zs[i], list(ys[i]), NO_PENALTY)
                    assert losses[i] == l
                    assert np.array_equal(grads[i], g)

    @pytest.mark.parametrize("t_len", [1, 2, 5])
    @pytest.mark.parametrize("u_len", [0, 1, 4])
    def test_flat_row_boundaries(self, t_len, u_len):
        # a sweep diagonal is one flat row of every item's cells between -inf
        # pads; neighbours with extreme edge cells must not leak into each other
        rng = np.random.default_rng(100 * t_len + u_len)
        big = rng.standard_normal((t_len, u_len + 1, 5)) * 60.0
        boosted = rng.standard_normal((t_len, u_len + 1, 5))
        boosted[..., 0] += 60.0
        zs = np.stack([big, boosted, np.zeros_like(big), big[::-1].copy(), boosted])
        ys = rng.integers(1, 5, size=(len(zs), u_len))
        for criterion, pen in (("rnnt", None), ("wst", None), ("wst", NO_PENALTY)):
            for grad_wrt in ("logits", "logprobs"):
                losses, grads = batched_grid_loss(zs, ys, criterion, pen, grad_wrt)
                for i in range(len(zs)):
                    loss, grad = batched_grid_loss(zs[i:i + 1], ys[i:i + 1], criterion, pen, grad_wrt)
                    assert np.array_equal(losses[i:i + 1], loss)
                    assert np.array_equal(grads[i:i + 1], grad)

    def test_memory_layout_does_not_matter(self):
        rng = np.random.default_rng(18)
        zs = rng.standard_normal((3, 4, 3, 5))
        ys = rng.integers(1, 5, size=(3, 2))
        for criterion in ("rnnt", "wst"):
            for grad_wrt in ("logits", "logprobs"):
                expected = batched_grid_loss(zs, ys, criterion, None, grad_wrt)
                for layout in (np.asfortranarray(zs), np.swapaxes(np.swapaxes(zs, 1, 2).copy(), 1, 2)):
                    got = batched_grid_loss(layout, ys, criterion, None, grad_wrt)
                    assert np.array_equal(got[0], expected[0]) and np.array_equal(got[1], expected[1])


class TestOverflowingLogits:
    """Finite logits whose range overflows log-softmax: a typed error, no warning, on every entry point."""

    Z = np.asarray([[[1e308, -1e308, 0.0]] * 2] * 2)  # target 1 gets probability 0

    @pytest.mark.parametrize("entry", [
        lambda z, toks: rnnt_loss(z, toks),
        lambda z, toks: wst_loss(z, toks, None),
        lambda z, toks: batched_grid_loss(z[None], [toks], "rnnt"),
        lambda z, toks: batched_grid_loss(z[None], [toks], "wst"),
    ], ids=["rnnt_loss", "wst_loss", "batched_rnnt", "batched_wst"])
    def test_no_path(self, entry):
        with pytest.raises(NoPath):
            entry(self.Z, [1])

    @pytest.mark.parametrize("criterion", ["rnnt", "wst"])
    def test_batch_names_the_item(self, criterion):
        zs = np.stack([np.zeros((2, 2, 3)), self.Z])
        with pytest.raises(NoPath, match="item 1"):
            batched_grid_loss(zs, [[1], [1]], criterion)

    @pytest.mark.parametrize("entry, item", [
        (lambda z, toks: rnnt_loss(z, toks), 0),
        (lambda z, toks: wst_loss(z, toks, INF_PENALTY), 0),
        (lambda z, toks: batched_grid_loss(np.stack([np.zeros_like(z), z]), [toks, toks]), 1),
        (lambda z, toks: batched_grid_loss(z[None], [toks], grad_wrt="logprobs"), 0),
    ], ids=["rnnt_loss", "wst_loss", "batched_rnnt", "batched_logprobs"])
    def test_occupancy_overflow_is_no_path(self, entry, item):
        """log-softmax holds at x1e200, but exp overflows in the occupancy step."""
        z = np.random.default_rng(0).standard_normal((2, 4, 3, 5))[0] * 1e200
        with pytest.raises(NoPath, match=f"arc occupancies of item {item} overflowed"):
            entry(z, [1, 2])

    def test_frame_before_last_masked_under_huge_penalty(self):
        """The blank-bypass arcs out of frame T-1 are masked, not only unreachable.

        Left in under lambda2 = 1.7e308, alpha + arc overflows to +inf on them with
        a RuntimeWarning, and their occupancy inf - inf = NaN makes this finite
        loss raise NoPath.
        """
        z = np.asarray([[[39.0, 0.1, -0.3, -0.2, 0.0, -0.7], [38.3, -0.2, -1.0, 1.5, -0.2, 1.6],
                         [40.3, 1.1, -0.2, -0.9, 0.6, 1.2], [39.3, 0.5, -0.7, 0.0, -1.9, 1.3]],
                        [[40.5, 1.0, 0.1, -1.2, 1.2, -2.1], [40.7, 0.7, 0.0, 0.7, 2.4, 0.5],
                         [38.1, 0.7, 1.6, 0.7, -0.3, -0.4], [40.0, -0.7, 0.2, 0.6, -0.7, 0.3]]])
        with pytest.warns(UserWarning, match="positive"):
            penalties = PenaltyConfig(-math.inf, 1.7e308)
        losses, grads = batched_grid_loss(z[None], [[3, 4, 5]], "wst", penalties)
        assert losses[0] == -1.7e308 and np.isfinite(grads).all()

    def test_sweep_overflow_is_no_path(self):
        """Under penalties of 1e308 alpha itself overflows in the sweep: NoPath, not a RuntimeWarning."""
        with pytest.warns(UserWarning, match="positive"):
            penalties = PenaltyConfig(1e308, 1e308)
        with pytest.raises(NoPath, match="item 0 overflowed"):
            batched_grid_loss(np.zeros((1, 3, 2, 4)), [[1]], "wst", penalties)

    def test_lost_path_count_is_no_path(self):
        # the overflowing entry is a token no arc reads, but the token arc's
        # log-probability is -1e308: the two paths' log-sum loses its ln 2,
        # each path would get occupancy 1, and the position's sum would be 2
        z = self.Z[..., [0, 2, 1]]
        assert log_softmax(z)[0, 0, 2] == NEG_INF
        with pytest.raises(NoPath, match="item 0 do not sum to 1"):
            rnnt_loss(z, [1])
        with pytest.raises(NoPath, match="item 0 do not sum to 1"):
            batched_grid_loss(z[None], [[1]], "wst")

    @pytest.mark.parametrize("criterion", ["rnnt", "wst"])
    @pytest.mark.parametrize("grad_wrt", ["logits", "logprobs"])
    def test_huge_finite_logits_are_no_path(self, criterion, grad_wrt):
        """At x1e15 the occupancies stay finite but wrong; unchecked, the gradient reaches 7.39."""
        rng = np.random.default_rng(20)
        z = rng.standard_normal((2, 4, 3, 5))
        ys = rng.integers(1, 5, (2, 2))
        with pytest.raises(NoPath, match="do not sum to 1 per frame and position"):
            batched_grid_loss(z * 1e15, ys, criterion, None, grad_wrt)


class TestWstWithoutPenalties:
    """``None`` penalties mean ``PenaltyConfig()`` on every wst entry point."""

    Z = np.random.default_rng(0).standard_normal((1, 3, 3, 5))

    def test_entry_points_agree(self):
        z, toks = self.Z, [1, 2]
        expected = wst_loss(z[0], toks, PenaltyConfig())[0]
        values = [
            batched_grid_loss(z, np.asarray([toks]), "wst", None)[0][0],
            wst_loss(z[0], toks, None)[0],
            -total_weight(build_wst_lattice(Vocab(5), toks, log_softmax(z[0]), None)),
            brute_force_loss(z[0], toks, "wst"),
        ]
        for v in values:
            assert abs(v - expected) <= 1e-10

    def test_rnnt_ignores_penalties(self):
        ys = np.asarray([[1, 2]])
        a = batched_grid_loss(self.Z, ys, "rnnt", None)
        b = batched_grid_loss(self.Z, ys, "rnnt", PenaltyConfig(0.0, 0.0))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_unknown_criterion(self):
        with pytest.raises(ValueError, match="criterion"):
            batched_grid_loss(self.Z, [[1, 2]], "ctc")


def reference_grid_loss(logits, ys, use_star, lambda1, lambda2, grad_wrt):
    """Cell-by-cell forward-backward with a dense sensitivity tensor.

    The straightforward form of the kernel: alpha and beta visit one (t, u)
    cell at a time, and d(log total)/d(lp) is accumulated into a dense
    [B, T, U+1, V] array. Returns (log total [B], loss [B], gradient).
    """
    lp = log_softmax(logits)
    b_sz, t_len, cols, v_size = lp.shape
    u_len = cols - 1
    blank = lp[..., 0]
    idx = np.broadcast_to(ys[:, None, :], (b_sz, t_len, u_len))
    tok = np.take_along_axis(lp[:, :, :u_len, :], idx[..., None], axis=-1)[..., 0]
    if use_star:
        star = _star_rows(blank, v_size)
        star1 = star[:, :, :u_len] + lambda1 if lambda1 != NEG_INF else np.full_like(tok, NEG_INF)
        star2 = star + lambda2 if lambda2 != NEG_INF else np.full_like(blank, NEG_INF)
        vert = np.logaddexp(tok, star1)
        horiz = np.logaddexp(blank, star2)
    else:
        vert, horiz = tok, blank

    alpha = np.full((b_sz, t_len, cols), NEG_INF)
    alpha[:, 0, 0] = 0.0
    for t in range(t_len):
        for u in range(cols):
            if t == 0 and u == 0:
                continue
            acc = np.full(b_sz, NEG_INF)
            if u > 0:
                acc = alpha[:, t, u - 1] + vert[:, t, u - 1]
            if t > 0:
                acc = np.logaddexp(acc, alpha[:, t - 1, u] + horiz[:, t - 1, u])
            alpha[:, t, u] = acc
    term = blank[:, t_len - 1, u_len]
    total = alpha[:, t_len - 1, u_len] + term

    beta = np.full((b_sz, t_len, cols), NEG_INF)
    beta[:, t_len - 1, u_len] = term
    for t in range(t_len - 1, -1, -1):
        for u in range(cols - 1, -1, -1):
            if t == t_len - 1 and u == u_len:
                continue
            acc = np.full(b_sz, NEG_INF)
            if u < u_len:
                acc = vert[:, t, u] + beta[:, t, u + 1]
            if t < t_len - 1:
                acc = np.logaddexp(acc, horiz[:, t, u] + beta[:, t + 1, u])
            beta[:, t, u] = acc

    tot = total[:, None, None]
    with np.errstate(invalid="ignore"):
        log_g_vert = alpha[:, :, :u_len] + vert + beta[:, :, 1:]
        gamma_vert = np.where(log_g_vert == NEG_INF, 0.0, np.exp(log_g_vert - tot))
        log_g_horiz = alpha[:, : t_len - 1, :] + horiz[:, : t_len - 1, :] + beta[:, 1:, :]
        gamma_horiz = np.where(log_g_horiz == NEG_INF, 0.0, np.exp(log_g_horiz - tot))
    gamma_term = np.where(alpha[:, t_len - 1, u_len] == NEG_INF, 0.0,
                          np.exp(alpha[:, t_len - 1, u_len] + term - tot[:, 0, 0]))
    if use_star:
        with np.errstate(invalid="ignore"):
            gamma_tok_bypass = np.where(gamma_vert > 0.0, gamma_vert * np.exp(star1 - vert), 0.0)
            gamma_blank_bypass = np.where(
                gamma_horiz > 0.0, gamma_horiz * np.exp(star2[:, : t_len - 1, :] - horiz[:, : t_len - 1, :]), 0.0)
        gamma_tok = gamma_vert - gamma_tok_bypass
        gamma_blank = gamma_horiz - gamma_blank_bypass
    else:
        gamma_tok, gamma_blank = gamma_vert, gamma_horiz

    dlp = np.zeros_like(lp)
    scatter = np.zeros((b_sz, t_len, u_len, v_size))
    np.put_along_axis(scatter, idx[..., None], gamma_tok[..., None], axis=-1)
    dlp[:, :, :u_len, :] += scatter
    dlp[:, : t_len - 1, :, 0] += gamma_blank
    dlp[:, t_len - 1, u_len, 0] += gamma_term
    if use_star:
        gamma_star = np.zeros((b_sz, t_len, cols))
        gamma_star[:, :, :u_len] += gamma_tok_bypass
        gamma_star[:, : t_len - 1, :] += gamma_blank_bypass
        with np.errstate(over="ignore", invalid="ignore"):
            factor = -np.exp(blank - star - math.log(v_size - 1))  # -p_blank / (1 - p_blank)
            dlp[..., 0] += np.where(gamma_star > 0.0, gamma_star * factor, 0.0)

    if grad_wrt == "logits":
        e = np.exp(logits - logits.max(axis=-1, keepdims=True))
        softmax_term = e * (dlp.sum(axis=-1, keepdims=True) / e.sum(axis=-1, keepdims=True))
        grad = -(dlp - softmax_term)
    else:
        grad = -dlp
    return total, -total, grad


def grid_planes(lp, ys):
    """The blank [B, T, U+1] and target [B, T, U] planes of log-probabilities ``lp``, and the targets' flat index."""
    flat = np.arange(0, lp.size, lp.shape[-1]).reshape(lp.shape[:-1])[:, :, :-1] + ys[:, None, :]
    return lp[..., 0], lp.reshape(-1)[flat], flat


PENALTIES = [(NEG_INF, NEG_INF), (0.0, 0.0), (LN_HALF, NEG_INF), (LN_HALF, LN_HALF)]


class TestWavefrontKernel:
    """The wavefront kernel against the cell-by-cell reference, bit for bit."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        b_sz=st.integers(1, 3),
        t_len=st.integers(1, 6),
        u_len=st.integers(0, 5),
        v_size=st.integers(2, 12),
        scale=st.sampled_from([1.0, 60.0]),
        blank_boost=st.booleans(),
        lams=st.sampled_from(PENALTIES),
    )
    @example(seed=0, b_sz=2, t_len=1, u_len=0, v_size=3, scale=1.0, blank_boost=False,
             lams=(0.0, 0.0))
    @example(seed=1, b_sz=1, t_len=1, u_len=3, v_size=4, scale=1.0, blank_boost=False,
             lams=(LN_HALF, NEG_INF))
    @example(seed=2, b_sz=2, t_len=5, u_len=0, v_size=5, scale=60.0, blank_boost=True,
             lams=(LN_HALF, LN_HALF))
    @settings(max_examples=150, deadline=None)
    def test_matches_cell_loop(self, seed, b_sz, t_len, u_len, v_size, scale, blank_boost, lams):
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((b_sz, t_len, u_len + 1, v_size)) * scale
        if blank_boost:
            # blank takes all the mass in these rows, so their star weight is -inf
            z[..., 0] += 60.0 * (rng.random((b_sz, t_len, u_len + 1)) < 0.5)
        ys = rng.integers(1, v_size, size=(b_sz, u_len))
        pen = PenaltyConfig(*lams)
        for criterion, use_star in (("rnnt", False), ("wst", True)):
            blank, tok, _ = grid_planes(log_softmax(z), ys)
            total, *_ = _grid_loss_grad(blank, tok, v_size, penalties_for(criterion, pen))
            for grad_wrt in ("logits", "logprobs"):
                ref_total, ref_loss, ref_grad = reference_grid_loss(z, ys, use_star, *lams, grad_wrt)
                assert np.array_equal(total, ref_total)
                loss, grad = batched_grid_loss(z, ys, criterion, pen, grad_wrt)
                assert np.array_equal(loss, ref_loss)
                assert np.array_equal(grad, ref_grad)

    def test_star_underflow_reaches_kernel(self):
        z = np.zeros((1, 2, 2, 4))
        z[..., 0] = 60.0
        assert np.all(star_log_prob(log_softmax(z)[..., 0], 4) == NEG_INF)


def unblocked_log_softmax(z):
    """log-softmax with each step over the whole array at once."""
    shifted = z - z.max(axis=-1, keepdims=True)
    shifted -= np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return shifted


# (2, 7, 4, 2048) spans 3.5 blocks of 256 KB; a row of (1, 2, 3, 40000) is longer than a block
BLOCK_SHAPES = [(2, 7, 4, 2048), (1, 2, 3, 40000)]


class TestBlockedDensePasses:
    """The dense passes over shapes that cross row-block boundaries, bit for bit."""

    def test_shapes_cross_block_boundaries(self):
        rows_per_block = _BLOCK_BYTES // (2048 * 8)
        assert 2 * 7 * 4 >= 3 * rows_per_block and (2 * 7 * 4) % rows_per_block
        assert 40000 * 8 > _BLOCK_BYTES

    @pytest.mark.parametrize("shape", BLOCK_SHAPES)
    def test_matches_cell_loop(self, shape):
        rng = np.random.default_rng(sum(shape))
        z = rng.standard_normal(shape) * 3.0
        ys = rng.integers(1, shape[-1], size=(shape[0], shape[2] - 1))
        assert np.array_equal(log_softmax(z), unblocked_log_softmax(z))
        lams = (LN_HALF, LN_HALF)
        for criterion, use_star in (("rnnt", False), ("wst", True)):
            for grad_wrt in ("logits", "logprobs"):
                _, ref_loss, ref_grad = reference_grid_loss(z, ys, use_star, *lams, grad_wrt)
                loss, grad = batched_grid_loss(z, ys, criterion, PenaltyConfig(*lams), grad_wrt)
                assert np.array_equal(loss, ref_loss)
                assert np.array_equal(grad, ref_grad)

    @pytest.mark.parametrize("criterion", ["rnnt", "wst"])
    def test_logprob_grad_keeps_the_sign_of_zero(self, criterion):
        rng = np.random.default_rng(21)
        lp = log_softmax(rng.standard_normal((2, 3, 4, 6)))
        ys = rng.integers(1, 6, size=(2, 3))
        blank, tok, flat = grid_planes(lp, ys)
        _, d_blank, d_tok = _grid_loss_grad(blank, tok, 6, penalties_for(criterion))
        dlp = np.zeros_like(lp)
        dlp[..., 0] = d_blank
        dlp.reshape(-1)[flat] = d_tok
        got = _write_grad(np.exp(lp), None, d_blank, d_tok, flat, False)
        assert np.array_equal(got, -dlp)
        assert np.array_equal(np.signbit(got), np.signbit(-dlp))

    @pytest.mark.parametrize("grad_wrt", ["logits", "logprobs"])
    def test_peak_memory_is_one_dense_array(self, grad_wrt):
        """The gradient is the one dense array a call allocates; the rest is block-sized or smaller."""
        rng = np.random.default_rng(19)
        z = rng.standard_normal((4, 24, 9, 1024))
        ys = rng.integers(1, 1024, size=(4, 8))
        tracemalloc.start()
        try:
            batched_grid_loss(z, ys, "wst", None, grad_wrt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * z.nbytes


GRID_CASES = dict(
    seed=st.integers(0, 2**32 - 1),
    b_sz=st.integers(1, 3),
    t_len=st.integers(1, 5),
    u_len=st.integers(0, 4),
    v_size=st.integers(2, 12),
    scale=st.sampled_from([1.0, 60.0, 1e3]),
    blank_boost=st.booleans(),
    lams=st.sampled_from([(LN_HALF, LN_HALF), (0.0, 0.0), (NEG_INF, NEG_INF)]),
)


def grid_case(seed, b_sz, t_len, u_len, v_size, scale, blank_boost):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((b_sz, t_len, u_len + 1, v_size)) * scale
    if blank_boost:
        z[..., 0] += 60.0 * (rng.random((b_sz, t_len, u_len + 1)) < 0.5)
    return z, rng.integers(1, v_size, size=(b_sz, u_len))


class TestScaledExpGradient:
    """The logit gradient scales exp(z - max) by (d_blank + d_tok) / its row sum.

    That moves the last bits of the logit gradient only: the losses, the
    log-probability gradient and the lambda = -inf reduction keep theirs.
    """

    @given(**GRID_CASES)
    @settings(max_examples=100, deadline=None)
    def test_within_rounding_of_the_exp_lp_form(self, seed, b_sz, t_len, u_len, v_size, scale,
                                                blank_boost, lams):
        z, ys = grid_case(seed, b_sz, t_len, u_len, v_size, scale, blank_boost)
        lp = log_softmax(z)
        blank, tok, flat = grid_planes(lp, ys)
        for criterion in ("rnnt", "wst"):
            pen = PenaltyConfig(*lams)
            try:
                _, d_blank, d_tok = _grid_loss_grad(blank, tok, v_size, penalties_for(criterion, pen))
            except NoPath:
                with pytest.raises(NoPath):
                    batched_grid_loss(z, ys, criterion, pen)
                continue
            dlp_sum, magnitude = d_blank.copy(), np.abs(d_blank)
            dlp_sum[:, :, :u_len] += d_tok
            magnitude[:, :, :u_len] += np.abs(d_tok)
            exp_lp_form = np.exp(lp) * dlp_sum[..., None]
            exp_lp_form[..., 0] -= d_blank
            exp_lp_form.reshape(-1)[flat] -= d_tok
            _, grad = batched_grid_loss(z, ys, criterion, pen)
            # a few units in the last place of the row's sensitivity, or of the smallest subnormal below it
            bound = 4 * np.finfo(float).eps * magnitude[..., None] + 4 * np.finfo(float).smallest_subnormal
            assert (np.abs(grad - exp_lp_form) <= bound).all()

    @given(**GRID_CASES)
    @settings(max_examples=100, deadline=None)
    def test_logprob_grad_and_reduction_keep_their_bits(self, seed, b_sz, t_len, u_len, v_size, scale,
                                                        blank_boost, lams):
        z, ys = grid_case(seed, b_sz, t_len, u_len, v_size, scale, blank_boost)
        lp = log_softmax(z)
        blank, tok, flat = grid_planes(lp, ys)
        for criterion in ("rnnt", "wst"):
            pen = PenaltyConfig(*lams)
            try:
                total, d_blank, d_tok = _grid_loss_grad(blank, tok, v_size, penalties_for(criterion, pen))
            except NoPath:
                continue
            expected = np.full_like(lp, -0.0)
            expected[..., 0] -= d_blank
            expected.reshape(-1)[flat] -= d_tok
            loss, grad = batched_grid_loss(z, ys, criterion, pen, "logprobs")
            assert loss.tobytes() == (-total).tobytes() and grad.tobytes() == expected.tobytes()
        for grad_wrt in ("logits", "logprobs"):
            try:
                expected = batched_grid_loss(z, ys, "rnnt", None, grad_wrt)
            except NoPath:
                with pytest.raises(NoPath):
                    batched_grid_loss(z, ys, "wst", INF_PENALTY, grad_wrt)
                continue
            got = batched_grid_loss(z, ys, "wst", INF_PENALTY, grad_wrt)
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got, expected))


class TestBatchedValidation:
    Z = np.random.default_rng(16).standard_normal((2, 3, 3, 5))
    YS = np.asarray([[1, 2], [3, 4]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_logits(self, bad):
        z = self.Z.copy()
        z[1, 2, 0, 3] = bad
        with pytest.raises(ShapeMismatch):
            batched_grid_loss(z, self.YS, "wst", NO_PENALTY)

    def test_blank_target(self):
        with pytest.raises(BlankInTranscript) as exc:
            batched_grid_loss(self.Z, [[1, 2], [3, 0]])
        assert exc.value.position == 1

    @pytest.mark.parametrize("tok", [5, 9, -1])
    def test_out_of_vocabulary_target(self, tok):
        with pytest.raises(OutOfVocabulary) as exc:
            batched_grid_loss(self.Z, [[tok, 2], [3, 4]])
        assert exc.value.token_id == tok

    def test_target_beyond_int_range(self):
        with pytest.raises(OutOfVocabulary) as exc:
            batched_grid_loss(self.Z, [[1, 2], [3, 2**64]])
        assert exc.value.position == 1
        with pytest.raises(OutOfVocabulary):
            rnnt_loss(self.Z[0], [2**64, 1])

    @pytest.mark.parametrize("ys", [[[1], [3]], [[1, 2, 3], [3, 4, 1]], [1, 2], [[1, 2]]])
    def test_target_shape(self, ys):
        with pytest.raises(ShapeMismatch):
            batched_grid_loss(self.Z, ys)

    def test_unknown_grad_wrt(self):
        with pytest.raises(ValueError, match="grad_wrt"):
            batched_grid_loss(self.Z, self.YS, grad_wrt="bogus")

    @pytest.mark.parametrize("pen", [(0.0, 0.0), {"lambda1": 0.0, "lambda2": 0.0}, "wst"])
    def test_penalties_of_another_type_named(self, pen):
        calls = (lambda: batched_grid_loss(self.Z, self.YS, "wst", pen), lambda: wst_loss(self.Z[0], [1, 2], pen),
                 lambda: brute_force_loss(self.Z[0], [1, 2], "wst", pen),
                 lambda: build_wst_lattice(Vocab(5), [1, 2], log_softmax(self.Z[0]), pen))
        message = "penalties must be a PenaltyConfig or None, got " + re.escape(repr(pen))
        for call in calls:
            with pytest.raises(ValueError, match=message):
                call()

    def test_single_item_checked_once(self, monkeypatch):
        shapes = []
        check = loss_module._check_grid
        monkeypatch.setattr(loss_module, "_check_grid", lambda z, ys: shapes.append(z.shape) or check(z, ys))
        rnnt_loss(self.Z[0], [1, 2])
        wst_loss(self.Z[0], [1, 2], None)
        assert shapes == [(1, 3, 3, 5)] * 2


def _rnnt(z, toks):
    return rnnt_loss(z[0], toks)


def _wst(z, toks):
    return wst_loss(z[0], toks, None)


def _batched(z, toks):
    return batched_grid_loss(z, [toks], "wst")


class TestTargetIds:
    Z = np.random.default_rng(17).standard_normal((1, 3, 2, 4))

    @pytest.mark.parametrize("entry", [_rnnt, _wst, _batched])
    @pytest.mark.parametrize("bad", [1.5, 1.7, True, np.True_, float("nan"), "1"])
    def test_non_integer_id_rejected(self, entry, bad):
        with pytest.raises(OutOfVocabulary) as exc:
            entry(self.Z, [bad])
        assert exc.value.position == 0

    @pytest.mark.parametrize("entry", [_rnnt, _wst, _batched])
    def test_integer_ids_accepted(self, entry):
        expected = entry(self.Z, [2])
        for toks in ([np.int64(2)], np.asarray([2]), [2.0]):
            got = entry(self.Z, toks)
            assert np.array_equal(got[0], expected[0]) and np.array_equal(got[1], expected[1])

    def test_empty_transcripts(self):
        z = self.Z[:, :, :1]
        assert rnnt_loss(z[0], [])[0] == batched_grid_loss(z, np.zeros((1, 0), dtype=int))[0][0]
        assert np.isfinite(wst_loss(z[0], np.asarray([], dtype=int), None)[0])
