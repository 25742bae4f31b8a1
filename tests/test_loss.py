import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wst.exceptions import BlankInTranscript, OutOfVocabulary, ShapeMismatch
from wst.graphs import LN_HALF, PenaltyConfig, build_rnnt_lattice, build_wst_lattice, penalties_for
from wst.loss import _grid_loss_grad, batched_grid_loss, log_softmax, rnnt_loss, wst_loss
from wst.numerics import NEG_INF, star_log_prob
from wst.numerics import star_log_prob as _star_rows  # the name reference_grid_loss uses
from wst.oracle import brute_force_loss
from wst.vocab import Vocab
from wst.wfst import arc_posteriors, total_weight

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

    def test_logprob_level_gradient_is_occupancy(self):
        rng = np.random.default_rng(11)
        z, toks = random_instance(rng, 2, 1, 3)
        _, grad_lp = rnnt_loss(z, toks, grad_wrt="logprobs")
        g = build_rnnt_lattice(Vocab(3), toks, log_softmax(z))
        post = arc_posteriors(g)
        occ = np.zeros_like(grad_lp)
        for a, p in zip(g.arcs, post):
            if a.frame is not None:
                occ[a.frame, a.position, a.label] += p
        assert np.allclose(grad_lp, -occ, atol=1e-12)


class TestBatchLoss:
    def test_batched_grid_matches_single_calls(self):
        rng = np.random.default_rng(15)
        zs = rng.standard_normal((3, 2, 2, 4))
        ys = rng.integers(1, 4, size=(3, 1))
        losses, grads = batched_grid_loss(zs, ys, "wst", NO_PENALTY)
        for i in range(3):
            l, g = wst_loss(zs[i], list(ys[i]), NO_PENALTY)
            assert losses[i] == l
            assert np.array_equal(grads[i], g)


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
            gamma_tok = np.where(gamma_vert > 0.0, gamma_vert * np.exp(tok - vert), 0.0)
            gamma_blank = np.where(gamma_horiz > 0.0,
                                   gamma_horiz * np.exp(blank[:, : t_len - 1, :] - horiz[:, : t_len - 1, :]),
                                   0.0)
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
        gamma_star[:, :, :u_len] += gamma_vert - gamma_tok
        gamma_star[:, : t_len - 1, :] += gamma_horiz - gamma_blank
        with np.errstate(divide="ignore", invalid="ignore"):
            factor = np.exp(blank) / np.expm1(blank)
            dlp[..., 0] += np.where(gamma_star > 0.0, gamma_star * factor, 0.0)

    if grad_wrt == "logits":
        grad = -(dlp - np.exp(lp) * dlp.sum(axis=-1, keepdims=True))
    else:
        grad = -dlp
    return total, -total, grad


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
            total, *_ = _grid_loss_grad(log_softmax(z), ys, penalties_for(criterion, pen))
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
