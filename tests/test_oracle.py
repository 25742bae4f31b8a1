import math

import numpy as np
import pytest

from wst.exceptions import NoPath, ShapeMismatch, TooManyPaths
from wst.graphs import PenaltyConfig, build_rnnt_lattice, build_wst_lattice
from wst.loss import batched_grid_loss, log_softmax, rnnt_loss
from wst.oracle import brute_force_loss, enumerate_paths
from wst.vocab import Vocab
from wst.wfst import EPSILON, Arc, Wfst, total_weight


def uniform_lp(t, u, v):
    return np.full((t, u + 1, v), -math.log(v))


def test_single_arc_graph():
    g = Wfst(2, 0, 1, [Arc(0, 1, EPSILON, EPSILON, -0.5)])
    paths = enumerate_paths(g)
    assert paths == [((0,), -0.5)]


def test_rnnt_t3_u2_path_count():
    g = build_rnnt_lattice(Vocab(3), [1, 2], uniform_lp(3, 2, 3))
    assert len(enumerate_paths(g)) == 6  # C(4, 2)


def test_wst_t2_u1_path_count():
    g = build_wst_lattice(Vocab(3), [1], uniform_lp(2, 1, 3), PenaltyConfig())
    assert len(enumerate_paths(g)) == 8


def test_path_weights_sum_to_total():
    rng = np.random.default_rng(0)
    lp = log_softmax(rng.standard_normal((3, 3, 4)))
    g = build_wst_lattice(Vocab(4), [1, 2], lp, PenaltyConfig(-0.3, -0.7))
    paths = enumerate_paths(g)
    assert np.logaddexp.reduce([w for _, w in paths]) == pytest.approx(total_weight(g), abs=1e-10)


def test_paths_in_arc_id_order():
    rng = np.random.default_rng(3)
    lp = log_softmax(rng.standard_normal((3, 3, 4)))
    g = build_wst_lattice(Vocab(4), [1, 2], lp, PenaltyConfig())
    ids = [p for p, _ in enumerate_paths(g)]
    assert len(ids) > 1 and ids == sorted(ids)


def test_long_chain_single_path():
    n = 5000
    g = Wfst(n + 1, 0, n, [Arc(i, i + 1, EPSILON, EPSILON, -1.0) for i in range(n)])
    assert enumerate_paths(g) == [(tuple(range(n)), -float(n))]


def test_guard():
    g = build_rnnt_lattice(Vocab(3), [1, 2], uniform_lp(3, 2, 3))
    with pytest.raises(TooManyPaths):
        enumerate_paths(g, max_paths=3)


def test_weight_multiset_stable_under_renumbering():
    rng = np.random.default_rng(1)
    lp = log_softmax(rng.standard_normal((2, 2, 3)))
    g = build_rnnt_lattice(Vocab(3), [1], lp)
    # renumber states by reversing ids
    n = g.num_states
    remap = {s: n - 1 - s for s in range(n)}
    arcs = [Arc(remap[a.src], remap[a.dst], a.label, a.olabel, a.weight, a.kind,
                a.frame, a.position) for a in g.arcs]
    g2 = Wfst(n, remap[g.start], remap[g.final], arcs)
    w1 = sorted(w for _, w in enumerate_paths(g))
    w2 = sorted(w for _, w in enumerate_paths(g2))
    assert np.allclose(w1, w2, atol=1e-12)


def test_brute_force_worked_examples():
    z = np.zeros((2, 2, 3))
    assert brute_force_loss(z, [1]) == pytest.approx(-math.log(2 * (1 / 3) ** 3), abs=1e-9)
    assert brute_force_loss(z, [1], "wst", PenaltyConfig(0.0, 0.0)) == pytest.approx(
        -math.log(8 * (1 / 3) ** 3), abs=1e-9)


def test_brute_force_single_frame():
    rng = np.random.default_rng(2)
    z = rng.standard_normal((1, 1, 3))
    assert brute_force_loss(z, []) == pytest.approx(-log_softmax(z)[0, 0, 0], abs=1e-12)


@pytest.mark.parametrize("criterion", ["rnnt", "wst"])
@pytest.mark.parametrize("bad", ["nan", "inf", "all -inf"])
def test_brute_force_rejects_non_finite_logits(criterion, bad):
    # the loss's own check, before log-softmax could warn or give NaN
    z = np.random.default_rng(0).standard_normal((3, 3, 5))
    if bad == "all -inf":
        z[:] = -math.inf
    else:
        z[1, 2, 0] = float(bad)
    with pytest.raises(ShapeMismatch, match="logits must be finite"):
        brute_force_loss(z, [1, 2], criterion)


@pytest.mark.parametrize("logits", [np.float64(0.0), np.zeros((2, 2, 0)), np.zeros((2, 2, 1))],
                         ids=["0-d", "V=0", "V=1"])
def test_brute_force_rejects_bad_shapes_like_the_loss(logits):
    with pytest.raises(ShapeMismatch):
        rnnt_loss(logits, [1])
    with pytest.raises(ShapeMismatch):
        brute_force_loss(logits, [1])


@pytest.mark.parametrize("criterion", ["rnnt", "wst"])
def test_brute_force_raises_no_path_like_the_kernel(criterion):
    # the token logit is 2e308 below the row maximum, so every path has weight -inf
    z = np.asarray([[[1e308, -1e308, 0.0]] * 2] * 2)
    with pytest.raises(NoPath):
        batched_grid_loss(z[None], [[1]], criterion)
    with pytest.raises(NoPath):
        brute_force_loss(z, [1], criterion)


def test_brute_force_raises_no_path_on_overflow():
    # bypass arcs weighted 1e308 overflow every path that takes two of them
    z = np.zeros((3, 2, 4))
    with pytest.warns(UserWarning, match="positive"):
        pen = PenaltyConfig(1e308, 1e308)
    with pytest.raises(NoPath, match="overflowed"):
        brute_force_loss(z, [1], "wst", pen)
