"""The benchmark's own checks must catch wrong answers, and its tracer must not break.

Run with ``python -m pytest bench/tests``.
"""

import types

import numpy as np
import pytest

import reference as ref
import tracing
import workloads
import wst

SMALL = workloads.LossWorkload("small", 9, batch=3, frames=6, tokens=3, vocab=7)


def with_loss(fn):
    """A stand-in for the ``wst`` package whose ``loss.batched_grid_loss`` is ``fn``."""
    fake = types.SimpleNamespace(**{k: getattr(wst, k) for k in dir(wst) if not k.startswith("__")})
    fake.loss = types.SimpleNamespace(batched_grid_loss=fn)
    return fake


def run_small(package):
    inp = SMALL.setup(wst, seed=3)
    rounds = [SMALL.run_round(package, inp) for _ in range(2)]
    return inp, rounds


def test_honest_loss_passes_every_check():
    inp, rounds = run_small(wst)
    assert all(not r.problems and r.failed == 0 and r.attempted == 2 for r in rounds)
    SMALL.check(wst, inp, rounds)


def test_perturbed_loss_fails_the_lattice_check():
    def scaled_loss(*args, **kwargs):
        losses, grad = wst.loss.batched_grid_loss(*args, **kwargs)
        return losses * (1 + 1e-7), grad

    fake = with_loss(scaled_loss)
    inp, rounds = run_small(fake)
    with pytest.raises(ref.CheckFailed, match="lattice"):
        SMALL.check(fake, inp, rounds)


def test_perturbed_gradient_entry_fails_the_row_sum_check():
    def nudged_grad(*args, **kwargs):
        losses, grad = wst.loss.batched_grid_loss(*args, **kwargs)
        grad[0, 1, 1, 2] += 1e-6
        return losses, grad

    _, rounds = run_small(with_loss(nudged_grad))
    assert any("sums to" in p for r in rounds for p in r.problems)


def test_scaled_gradient_fails_the_finite_difference_check():
    # rows of a scaled gradient still sum to zero; only finite differences see it
    def scaled_grad(*args, **kwargs):
        losses, grad = wst.loss.batched_grid_loss(*args, **kwargs)
        return losses, grad * 1.01

    fake = with_loss(scaled_grad)
    inp, rounds = run_small(fake)
    assert not any(r.problems for r in rounds)
    with pytest.raises(ref.CheckFailed, match="finite difference"):
        SMALL.check(fake, inp, rounds)


def test_wst_not_below_rnnt_fails_the_dominance_check():
    with pytest.raises(ref.CheckFailed, match="not below"):
        ref.check_dominance(np.array([3.0, 2.0]), np.array([2.5, 2.0]), "x")


def test_levenshtein_matches_the_program_edit_counts():
    rng = np.random.default_rng(0)
    assert ref.levenshtein([1, 2, 3, 4], [1, 3, 4, 5]) == 2
    assert ref.levenshtein([], [1, 2]) == 2
    for _ in range(200):
        a = rng.integers(1, 4, size=int(rng.integers(0, 7))).tolist()
        b = rng.integers(1, 4, size=int(rng.integers(0, 7))).tolist()
        assert ref.levenshtein(a, b) == sum(wst.edit_counts(a, b))


TINY = wst.ExperimentConfig(
    task=wst.ToyTask(vocab_size=5, train_size=16, eval_size=8, min_len=2, max_len=4, seed=5),
    corruption=wst.CorruptionSpec("mixed", 0.5, 7), criterion="wst", hidden=8, epochs=3, batch_size=4)


def test_reported_wer_passes_the_levenshtein_cross_check():
    report = wst.run_experiment(TINY)
    workloads.check_eval_wer(wst, TINY, report, wst.generate_task_data(TINY.task)[1])


def test_wrong_wer_fails_the_levenshtein_cross_check():
    report = wst.run_experiment(TINY)
    report["eval_wer"] += 1 / 64
    with pytest.raises(ref.CheckFailed, match="Levenshtein"):
        workloads.check_eval_wer(wst, TINY, report, wst.generate_task_data(TINY.task)[1])


def test_rising_loss_curve_fails():
    with pytest.raises(ref.CheckFailed, match="do not fall"):
        workloads.check_curve({"epochs": [2.0, 2.5]}, "x")
    with pytest.raises(ref.CheckFailed):
        workloads.check_curve({"epochs": [2.0, float("nan"), 1.0]}, "x")


def test_tracer_counts_a_training_run_and_restores_the_names():
    original = wst.toytrain.batched_grid_loss
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wst.run_experiment(TINY)
    finally:
        tracer.uninstall()
    assert wst.toytrain.batched_grid_loss is original
    assert tracer.missing == []
    m = {k: v["value"] for k, v in tracing.layer_metrics(tracer, 1, TINY.batch_size, 0.0).items()}
    assert set(m) == set(tracing.METRICS)
    assert m["toytrain.batches"] == m["loss.batched_grid_loss.calls"] > 0
    assert 0 < m["toytrain.batch_fill"] <= 1
    assert 0 < m["toytrain.model.s"] < m["toytrain.train.s"]
    assert m["loss.log_softmax.s"] < m["loss.batched_grid_loss.s"]
    assert m["toytrain.decode.calls"] == TINY.task.eval_size
    spans = tracer.spans
    assert all(s.end >= s.start for s in spans)
    assert all(spans[s.parent].name == "loss.batched_grid_loss"
               for s in spans if s.name == "loss.log_softmax")


def test_missing_wrapped_name_is_reported_not_raised(monkeypatch):
    monkeypatch.delattr(wst.toytrain, "batched_grid_loss")
    targets = dict(tracing.TARGETS, **{"gone.module": (("wst.no_such_module", "f"),)})
    tracer = tracing.Tracer(targets=targets)
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["wst.toytrain.batched_grid_loss", "wst.no_such_module.f"]
    metrics = tracing.layer_metrics(tracer, 1, 64, 0.0)
    assert "loss.batched_grid_loss.s" not in metrics
    assert "toytrain.model.s" not in metrics
    assert "loss.log_softmax.s" in metrics and "toytrain.decode.s" in metrics
    assert not hasattr(wst.toytrain, "batched_grid_loss")
