import math
from itertools import combinations

import numpy as np
import pytest

from wst.exceptions import CyclicGraph, ShapeMismatch
from wst.graphs import (
    LN_HALF,
    PenaltyConfig,
    build_rnnt_lattice,
    build_transcript_graph,
    build_ws_transcript_graph,
    build_wst_lattice,
    penalties_for,
)
from wst.loss import log_softmax
from wst.numerics import NEG_INF, star_log_prob
from wst.oracle import enumerate_paths
from wst.vocab import Vocab
from wst.wfst import ArcKind, topo_sort, total_weight

V4 = Vocab(4)


def uniform_lp(t, u, v):
    return np.full((t, u + 1, v), -math.log(v))


def comb(n, k):
    return math.comb(n, k)


class TestPenaltyConfig:
    def test_defaults(self):
        p = PenaltyConfig()
        assert p.lambda1 == pytest.approx(math.log(0.5))
        assert p.lambda2 == pytest.approx(math.log(0.5))

    def test_neg_inf_allowed(self):
        PenaltyConfig(NEG_INF, NEG_INF)

    def test_positive_warns(self):
        with pytest.warns(UserWarning):
            PenaltyConfig(0.5, 0.0)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            PenaltyConfig(float("nan"), 0.0)

    @pytest.mark.parametrize("lams", [(math.inf, 0.0), (0.0, math.inf)])
    def test_pos_inf_rejected(self, lams):
        with pytest.raises(ValueError, match=r"\+inf"):
            PenaltyConfig(*lams)


class TestTranscriptGraph:
    def test_empty(self):
        g = build_transcript_graph(V4, [])
        assert g.num_states == 2
        assert len(g.arcs) == 1
        assert g.arcs[0].kind == ArcKind.FINAL

    def test_abc(self):
        g = build_transcript_graph(V4, [1, 2, 3])
        assert g.num_states == 5
        assert [a.label for a in g.arcs] == [1, 2, 3, -1]

    def test_single(self):
        g = build_transcript_graph(V4, [1])
        assert g.num_states == 3
        assert len(g.arcs) == 2


class TestWsTranscriptGraph:
    def test_single_token(self):
        g = build_ws_transcript_graph(Vocab(3), [1], PenaltyConfig())
        assert g.num_states == 3
        assert len(g.arcs) == 5
        loops = [a for a in g.arcs if a.src == a.dst]
        assert len(loops) == 2
        assert all(a.label == 3 for a in loops)  # star self-loops

    def test_empty(self):
        g = build_ws_transcript_graph(Vocab(3), [], PenaltyConfig())
        assert len(g.arcs) == 2

    def test_abc_arc_count(self):
        g = build_ws_transcript_graph(V4, [1, 2, 3], PenaltyConfig())
        assert len(g.arcs) == 11  # 4 self-loops + 3 token + 3 bypass + 1 final

    def test_cyclic_hence_export_only(self):
        g = build_ws_transcript_graph(V4, [1], PenaltyConfig())
        with pytest.raises(CyclicGraph):
            topo_sort(g)


class TestRnntLattice:
    def test_fig2_scale_counts(self):
        g = build_rnnt_lattice(V4, [1, 2, 3], uniform_lp(4, 3, 4))
        assert g.num_states == 18
        assert len(g.arcs) == 26
        kinds = [a.kind for a in g.arcs]
        assert kinds.count(ArcKind.TOKEN) == 12
        assert kinds.count(ArcKind.BLANK) == 13  # 12 grid + 1 terminating
        assert kinds.count(ArcKind.FINAL) == 1

    def test_single_forced_path(self):
        lp = log_softmax(np.asarray([[[0.3, -0.2]]]))
        g = build_rnnt_lattice(Vocab(2), [], lp)
        assert g.num_states == 3
        assert len(g.arcs) == 2
        assert total_weight(g) == pytest.approx(lp[0, 0, 0], abs=1e-12)

    def test_accepting_path_count_t2_u1(self):
        g = build_rnnt_lattice(Vocab(3), [1], uniform_lp(2, 1, 3))
        assert len(enumerate_paths(g)) == 2

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            build_rnnt_lattice(V4, [1, 2], uniform_lp(3, 1, 4))
        with pytest.raises(ShapeMismatch):
            build_rnnt_lattice(V4, [1], uniform_lp(3, 1, 5))

    def test_frame_position_set_on_every_lattice_arc(self):
        g = build_rnnt_lattice(V4, [1, 2], uniform_lp(3, 2, 4))
        for a in g.arcs:
            if a.kind != ArcKind.FINAL:
                assert a.frame is not None and a.position is not None


class TestWstLattice:
    def test_fig2_scale_counts(self):
        g = build_wst_lattice(V4, [1, 2, 3], uniform_lp(4, 3, 4), PenaltyConfig())
        assert g.num_states == 18
        assert len(g.arcs) == 50
        kinds = [a.kind for a in g.arcs]
        assert kinds.count(ArcKind.TOKEN_BYPASS) == 12
        assert kinds.count(ArcKind.BLANK_BYPASS) == 12

    def test_neg_inf_penalties_reduce_to_rnnt(self):
        lp = log_softmax(np.random.default_rng(0).standard_normal((3, 3, 4)))
        g_std = build_rnnt_lattice(V4, [1, 2], lp)
        g_ws = build_wst_lattice(V4, [1, 2], lp, PenaltyConfig(NEG_INF, NEG_INF))
        assert total_weight(g_ws) == total_weight(g_std)

    def test_uniform_worked_example(self):
        g = build_wst_lattice(Vocab(3), [1], uniform_lp(2, 1, 3), PenaltyConfig(0.0, 0.0))
        assert total_weight(g) == pytest.approx(math.log(8 / 27), abs=1e-9)

    def test_terminating_blank_has_no_bypass_twin(self):
        g = build_wst_lattice(Vocab(3), [1], uniform_lp(2, 1, 3), PenaltyConfig())
        pre_final = max(a.src for a in g.arcs if a.kind == ArcKind.FINAL)
        into_pre_final = [a for a in g.arcs if a.dst == pre_final]
        assert len(into_pre_final) == 1
        assert into_pre_final[0].kind == ArcKind.BLANK


BYPASS_KINDS = (ArcKind.TOKEN_BYPASS, ArcKind.BLANK_BYPASS)


class TestOneGrid:
    """The standard lattice is the weakly supervised one without bypass arcs."""

    @pytest.mark.parametrize("t_len,u_len", [(1, 0), (1, 2), (3, 0), (4, 3)])
    def test_rnnt_is_wst_without_bypass(self, t_len, u_len):
        rng = np.random.default_rng(t_len * 10 + u_len)
        lp = log_softmax(rng.standard_normal((t_len, u_len + 1, 5)))
        tokens = [int(x) for x in rng.integers(1, 5, size=u_len)]
        g_std = build_rnnt_lattice(Vocab(5), tokens, lp)
        g_ws = build_wst_lattice(Vocab(5), tokens, lp, PenaltyConfig())
        kept = [a for a in g_ws.arcs if a.kind not in BYPASS_KINDS]
        assert kept == list(g_std.arcs)
        assert (g_ws.num_states, g_ws.start, g_ws.final) == (g_std.num_states, g_std.start, g_std.final)

    @pytest.mark.parametrize("lams", [(LN_HALF, -1.3), (0.0, 0.0), (NEG_INF, -0.2), (NEG_INF, NEG_INF)])
    def test_bypass_weight_is_star_plane_plus_lambda(self, lams):
        z = np.random.default_rng(3).standard_normal((4, 3, 6))
        z[1, :, 0] += 60.0  # blank takes all the mass: star weight -inf
        lp = log_softmax(z)
        star = star_log_prob(lp[..., 0], 6)
        g = build_wst_lattice(Vocab(6), [2, 5], lp, PenaltyConfig(*lams))
        lam = {ArcKind.TOKEN_BYPASS: lams[0], ArcKind.BLANK_BYPASS: lams[1]}
        bypass = [a for a in g.arcs if a.kind in BYPASS_KINDS]
        assert len(bypass) == 4 * 2 + 3 * 3
        for a in bypass:
            want = star[a.frame, a.position] + lam[a.kind]
            assert a.weight == want
            assert a.label == a.olabel == Vocab(6).star_id

    def test_penalties_for(self):
        p = PenaltyConfig(-0.3, -0.7)
        assert penalties_for("rnnt") is None
        assert penalties_for("rnnt", p) is None
        assert penalties_for("wst", p) is p
        assert penalties_for("wst") == PenaltyConfig()
        with pytest.raises(ValueError, match="criterion"):
            penalties_for("ctc", p)

    def test_none_penalties_mean_default(self):
        lp = uniform_lp(2, 1, 3)
        assert build_wst_lattice(Vocab(3), [1], lp, None) == build_wst_lattice(
            Vocab(3), [1], lp, PenaltyConfig())
        assert build_ws_transcript_graph(Vocab(3), [1], None) == build_ws_transcript_graph(
            Vocab(3), [1], PenaltyConfig())


class TestPathCounts:
    @pytest.mark.parametrize("t_len", range(1, 6))
    @pytest.mark.parametrize("u_len", range(0, 5))
    def test_counts_match_enumeration(self, t_len, u_len):
        vocab = Vocab(5)
        tokens = [(i % 4) + 1 for i in range(u_len)]
        lp = uniform_lp(t_len, u_len, 5)
        g_std = build_rnnt_lattice(vocab, tokens, lp)
        g_ws = build_wst_lattice(vocab, tokens, lp, PenaltyConfig())
        n_std = len(enumerate_paths(g_std))
        n_ws = len(enumerate_paths(g_ws))
        assert n_std == comb(t_len + u_len - 1, u_len)
        assert n_ws == comb(t_len + u_len - 1, u_len) * 2 ** (t_len + u_len - 1)

    def test_monotone_structure_no_cycles(self):
        g = build_wst_lattice(Vocab(3), [1, 2], uniform_lp(3, 2, 3), PenaltyConfig())
        topo_sort(g)  # must not raise

    def test_blank_bypass_capacity(self):
        # no path can take more than T-1 blank-bypass arcs
        g = build_wst_lattice(Vocab(3), [1], uniform_lp(3, 1, 3), PenaltyConfig())
        for arc_ids, _ in enumerate_paths(g):
            n_bb = sum(1 for i in arc_ids if g.arcs[i].kind == ArcKind.BLANK_BYPASS)
            assert n_bb <= 2

    def test_token_bypass_does_not_consume_frames(self):
        g = build_wst_lattice(Vocab(3), [1], uniform_lp(2, 1, 3), PenaltyConfig())
        for a in g.arcs:
            if a.kind == ArcKind.TOKEN_BYPASS:
                # vertical: same frame block, next position
                twin = next(x for x in g.arcs if x.kind == ArcKind.TOKEN
                            and x.frame == a.frame and x.position == a.position)
                assert (a.src, a.dst) == (twin.src, twin.dst)
