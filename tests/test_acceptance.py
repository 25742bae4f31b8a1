"""Acceptance suite: exact property checks on the math core plus a seeded
directional reproduction of the robustness trend at toy scale.

Each test prints a PASS line with the measured quantity so the suite doubles
as a report when run with ``pytest -v -s``.
"""

import json
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from wst.cli import main as cli_main
from wst.corruption import KINDS, CorruptionSpec, measure_corruption
from wst.graphs import PenaltyConfig, build_rnnt_lattice, build_wst_lattice
from wst.loss import log_softmax, rnnt_loss, wst_loss
from wst.oracle import brute_force_loss, enumerate_paths
from wst.toytrain import ExperimentConfig, ToyTask, run_experiment
from wst.vocab import Vocab
from wst.wfst import NEG_INF

NO_PENALTY = PenaltyConfig(0.0, 0.0)


def rand_tokens(rng, u_len, v_size):
    if v_size == 2:
        return [1] * u_len
    return [int(x) for x in rng.integers(1, v_size, size=u_len)]


def test_criterion_1_oracle_equivalence():
    start = time.monotonic()
    lambdas = [0.0, -0.69, -5.0]
    worst = 0.0
    checked = 0
    for v_size in (2, 3, 5):
        for t_len in range(1, 5):
            for u_len in range(0, 4):
                rng = np.random.default_rng([1, v_size, t_len, u_len])
                for _ in range(20):
                    tokens = rand_tokens(rng, u_len, v_size)
                    z = rng.standard_normal((t_len, u_len + 1, v_size))
                    d = abs(rnnt_loss(z, tokens)[0] - brute_force_loss(z, tokens))
                    worst = max(worst, d)
                    checked += 1
                    for lam in lambdas:
                        p = PenaltyConfig(lam, lam)
                        d = abs(wst_loss(z, tokens, p)[0]
                                - brute_force_loss(z, tokens, "wst", p))
                        worst = max(worst, d)
                        checked += 1
    elapsed = time.monotonic() - start
    assert worst <= 1e-10
    assert elapsed < 30
    print(f"PASS criterion 1: {checked} oracle comparisons, "
          f"max |diff|={worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_gradient_correctness():
    start = time.monotonic()
    rng = np.random.default_rng(2)
    h = 1e-5
    worst = 0.0
    for i in range(50):
        t_len = int(rng.integers(1, 4))
        u_len = int(rng.integers(0, 4))
        v_size = int(rng.integers(3, 6))
        tokens = rand_tokens(rng, u_len, v_size)
        z = rng.standard_normal((t_len, u_len + 1, v_size))
        if i % 2 == 0:
            f = lambda zz: rnnt_loss(zz, tokens)[0]
            _, grad = rnnt_loss(z, tokens)
        else:
            # finite penalties exercise the star chain rule through p_blank
            p = PenaltyConfig(-0.5, -1.0)
            f = lambda zz: wst_loss(zz, tokens, p)[0]
            _, grad = wst_loss(z, tokens, p)
        for idx in np.ndindex(z.shape):
            zp, zm = z.copy(), z.copy()
            zp[idx] += h
            zm[idx] -= h
            fd = (f(zp) - f(zm)) / (2 * h)
            rel = abs(fd - grad[idx]) / max(abs(fd), abs(grad[idx]), 1e-8)
            worst = max(worst, rel)
    elapsed = time.monotonic() - start
    assert worst <= 1e-4
    assert elapsed < 60
    print(f"PASS criterion 2: 50 instances, max rel err={worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_reduction():
    rng = np.random.default_rng(3)
    inf = PenaltyConfig(NEG_INF, NEG_INF)
    for _ in range(100):
        t_len = int(rng.integers(1, 5))
        u_len = int(rng.integers(0, 4))
        tokens = rand_tokens(rng, u_len, 5)
        z = rng.standard_normal((t_len, u_len + 1, 5))
        l_std, g_std = rnnt_loss(z, tokens)
        l_ws, g_ws = wst_loss(z, tokens, inf)
        assert abs(l_ws - l_std) <= 1e-12
        assert np.array_equal(g_ws, g_std)

    # end-to-end: wst pipeline with lambda = -inf reproduces the rnnt report
    task = ToyTask(vocab_size=5, train_size=16, eval_size=8, min_len=2, max_len=4, seed=5)
    base = dict(task=task, corruption=CorruptionSpec("sub", 0.3, 5),
                hidden=8, epochs=3, batch_size=4)
    rep_std = run_experiment(ExperimentConfig(criterion="rnnt", **base))
    rep_ws = run_experiment(ExperimentConfig(criterion="wst", penalties=inf, **base))
    # the criterion name is the only intended difference between the reports
    for rep in (rep_std, rep_ws):
        rep.pop("criterion")
        rep["config"].pop("criterion")
        rep["config"].pop("penalties")
    assert json.dumps(rep_std, sort_keys=True) == json.dumps(rep_ws, sort_keys=True)
    print("PASS criterion 3: 100 bit-equal reductions; pipeline reports byte-identical")


def test_criterion_4_structural_counts():
    import math
    lp = np.full((4, 4, 4), -math.log(4))
    g_std = build_rnnt_lattice(Vocab(4), [1, 2, 3], lp)
    assert g_std.num_states == 18
    assert len(g_std.arcs) == 26
    g_ws = build_wst_lattice(Vocab(4), [1, 2, 3], lp, NO_PENALTY)
    assert len(g_ws.arcs) == 50
    for t_len in range(1, 6):
        for u_len in range(0, 5):
            tokens = [(i % 4) + 1 for i in range(u_len)]
            lpu = np.full((t_len, u_len + 1, 5), -math.log(5))
            n_std = len(enumerate_paths(build_rnnt_lattice(Vocab(5), tokens, lpu)))
            n_ws = len(enumerate_paths(build_wst_lattice(Vocab(5), tokens, lpu, NO_PENALTY)))
            assert n_std == math.comb(t_len + u_len - 1, u_len)
            assert n_ws == n_std * 2 ** (t_len + u_len - 1)
    print("PASS criterion 4: 18/26 and 50 counts; path counts verified for T<=5, U<=4")


def test_criterion_5_worked_example():
    import math
    z = np.zeros((2, 2, 3))
    l_std = rnnt_loss(z, [1])[0]
    l_ws = wst_loss(z, [1], NO_PENALTY)[0]
    assert abs(l_std - (-math.log(2 / 27))) <= 1e-9
    assert abs(l_ws - (-math.log(8 / 27))) <= 1e-9
    print(f"PASS criterion 5: rnnt={l_std:.6f} (~2.602690), wst={l_ws:.6f} (~1.216395)")


def test_criterion_6_dominance_and_monotonicity():
    rng = np.random.default_rng(6)
    grid = [-5.0, -2.0, -0.69, 0.0]
    # T=1, U=0 is the one lattice with no bypass arcs (the terminating blank
    # has no twin), where the losses coincide exactly
    z1 = rng.standard_normal((1, 1, 4))
    assert wst_loss(z1, [], NO_PENALTY)[0] == rnnt_loss(z1, [])[0]
    for _ in range(30):
        t_len = int(rng.integers(1, 4))
        u_len = int(rng.integers(0, 4))
        if t_len + u_len < 2:
            u_len = 1
        tokens = rand_tokens(rng, u_len, 4)
        z = rng.standard_normal((t_len, u_len + 1, 4))
        l_std = rnnt_loss(z, tokens)[0]
        for lam1 in grid:
            for lam2 in grid:
                assert wst_loss(z, tokens, PenaltyConfig(lam1, lam2))[0] < l_std
        for lam2 in grid:
            vals = [wst_loss(z, tokens, PenaltyConfig(l1, lam2))[0] for l1 in grid]
            assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
        for lam1 in grid:
            vals = [wst_loss(z, tokens, PenaltyConfig(lam1, l2))[0] for l2 in grid]
            assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
    print("PASS criterion 6: dominance and lambda-monotonicity on 30 instances")


def _trend_wer(cell):
    """(WER, deletion rate) of one default cell."""
    criterion, kind, rate = cell
    config = ExperimentConfig(criterion=criterion,
                              corruption=CorruptionSpec(kind, rate, 7))
    report = run_experiment(config)
    return report["eval_wer"], report["eval_del_rate"]


def test_criterion_7_trend_reproduction():
    start = time.monotonic()
    cells = [("rnnt", "sub", 0.0), ("wst", "sub", 0.0)] + [
        (criterion, kind, rate) for kind in KINDS for rate in (0.3, 0.5, 0.7) for criterion in ("rnnt", "wst")]
    # the cells are independent; forked workers keep pytest's warning filters and the BLAS thread pin
    with ProcessPoolExecutor(min(2, os.cpu_count() or 1), mp_context=multiprocessing.get_context("fork")) as pool:
        wer, dels = (dict(zip(cells, col)) for col in zip(*pool.map(_trend_wer, cells)))
    # (a) clean parity
    clean_std = wer["rnnt", "sub", 0.0]
    clean_ws = wer["wst", "sub", 0.0]
    assert abs(clean_ws - clean_std) <= 0.02
    # (b) substitution at 0.5: at least a 30% relative reduction
    sub_std = wer["rnnt", "sub", 0.5]
    sub_ws = wer["wst", "sub", 0.5]
    assert sub_ws <= 0.7 * sub_std
    # (b') under substitutions both models fail almost only by dropping tokens
    for criterion in ("rnnt", "wst"):
        assert dels[criterion, "sub", 0.5] >= 0.95 * wer[criterion, "sub", 0.5], criterion
    # (c) never loses by > 0.02 at any rate >= 0.3, wins at 0.5, for every kind
    lines = [f"  clean: rnnt={clean_std:.3f} wst={clean_ws:.3f}",
             f"  sub@0.5: rnnt={sub_std:.3f} wst={sub_ws:.3f} "
             f"(ratio {sub_ws / sub_std:.2f}; del rnnt={dels['rnnt', 'sub', 0.5]:.3f} "
             f"wst={dels['wst', 'sub', 0.5]:.3f})"]
    for kind in KINDS:
        for rate in (0.3, 0.5, 0.7):
            w_std = wer["rnnt", kind, rate]
            w_ws = wer["wst", kind, rate]
            assert w_ws <= w_std + 0.02, (kind, rate, w_std, w_ws)
            if rate == 0.5:
                assert w_ws < w_std, (kind, w_std, w_ws)
            lines.append(f"  {kind}@{rate}: rnnt={w_std:.3f} wst={w_ws:.3f}")
    elapsed = time.monotonic() - start
    assert elapsed < 900
    print("PASS criterion 7: trend reproduced "
          f"({len(lines)} cells shown, {elapsed:.0f}s)")
    print("\n".join(lines))


def test_criterion_8_corruption_calibration():
    rng = np.random.default_rng(8)
    vocab = Vocab(11)
    data = [[int(t) for t in rng.integers(1, 11, size=10)] for _ in range(1000)]
    for kind in KINDS:
        for rate in (0.1, 0.3, 0.5):
            stats = measure_corruption(vocab, data, CorruptionSpec(kind, rate, 17))
            n = stats["total_ref_tokens"]
            sigma = (rate * (1 - rate) / n) ** 0.5
            if kind == "mixed":
                # minimal alignments merge some adjacent ins+del into one sub
                assert 0.85 * rate - 0.005 <= stats["error_rate"] <= rate + 3 * sigma + 0.01
            else:
                assert abs(stats["error_rate"] - rate) <= 3 * sigma + 0.01
    print("PASS criterion 8: realized rates within 3-sigma on 10^4-token corpora")


def test_criterion_9_cli_determinism(tmp_path, capsys):
    tensor = tmp_path / "t.json"
    tensor.write_text(json.dumps(
        {"T": 2, "U": 1, "V": 3, "kind": "logits", "data": [0.1 * i for i in range(12)]}))
    data = tmp_path / "data.jsonl"
    data.write_text("".join(
        json.dumps({"id": i, "tokens": [1, 2, 3]}) + "\n" for i in range(10)))
    noisy = tmp_path / "noisy.jsonl"
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "task": {"vocab_size": 5, "train_size": 12, "eval_size": 6,
                 "min_len": 2, "max_len": 3, "seed": 1},
        "corruption": {"kind": "del", "rate": 0.3, "seed": 2},
        "criterion": "wst", "hidden": 8, "epochs": 2, "batch_size": 4,
    }))
    invocations = [
        ["graph", "--type", "wst", "--tokens", "1,2", "--vocab-size", "4",
         "--frames", "3", "--out", "json"],
        ["graph", "--type", "ws-transcript", "--tokens", "1,2", "--vocab-size", "4",
         "--out", "dot"],
        ["loss", "--criterion", "wst", "--tensor", str(tensor), "--tokens", "1",
         "--grad", "--oracle"],
        ["corrupt", "--input", str(data), "--vocab-size", "5", "--kind", "mixed",
         "--rate", "0.5", "--seed", "3"],
        ["train", "--config", str(config)],
    ]
    for argv in invocations:
        outs = []
        for _ in range(2):
            assert cli_main(list(argv)) == 0
            outs.append(capsys.readouterr().out.encode())
        assert outs[0] == outs[1], argv
    # corrupt -> score round trip is deterministic end to end
    for out_name in ("n1.jsonl", "n2.jsonl"):
        assert cli_main(["corrupt", "--input", str(data), "--output",
                         str(tmp_path / out_name), "--vocab-size", "5",
                         "--kind", "sub", "--rate", "0.4", "--seed", "9"]) == 0
    capsys.readouterr()
    assert (tmp_path / "n1.jsonl").read_bytes() == (tmp_path / "n2.jsonl").read_bytes()
    print("PASS criterion 9: byte-identical CLI output across repeated runs")
