"""The benchmark's workloads: inputs made from a seed, timed rounds, output checks.

Each workload runs whole rounds of the same operations. A round calls the
program once per criterion (``rnnt`` then ``wst``) and times each call; the
checks on the outputs run outside the timed calls.
"""

import json
import math
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

import reference as ref

CRITERIA = ("rnnt", "wst")


@dataclass
class Round:
    """Timings and outputs of one round."""

    seconds: Dict[str, float] = field(default_factory=dict)  # criterion -> time of its call
    items: Dict[str, int] = field(default_factory=dict)      # criterion -> items through it
    outputs: Dict[str, object] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    @property
    def wall_s(self) -> float:
        return sum(self.seconds.values())


def _call(rnd: Round, label: str, items: int, fn, *args, **kwargs):
    """Time one operation; a raised exception counts as a failed operation."""
    rnd.attempted += 1
    start = time.perf_counter()
    try:
        out = fn(*args, **kwargs)
    except Exception:
        rnd.failed += 1
        traceback.print_exc(file=sys.stderr)
        return None
    rnd.seconds[label] = time.perf_counter() - start
    rnd.items[label] = items
    return out


def draw_item(rng: np.random.Generator, batch: int, frames: int, tokens: int, vocab: int):
    """Standard-normal logits [B, T, U+1, V] and uniform non-blank targets [B, U]."""
    logits = rng.standard_normal((batch, frames, tokens + 1, vocab))
    ys = rng.integers(1, vocab, size=(batch, tokens))
    return logits, ys


@dataclass
class LossInputs:
    logits: np.ndarray
    ys: np.ndarray
    small_logits: np.ndarray  # one small item for the finite-difference check
    small_ys: np.ndarray
    penalties: object


class LossWorkload:
    """``batched_grid_loss`` with the logits gradient at one fixed shape, both criteria."""

    warmup_rounds = 1  # a round is about a second; the first one runs cold

    def __init__(self, name: str, tag: int, batch: int, frames: int, tokens: int, vocab: int):
        self.name = name
        self.tag = tag
        self.shape = (batch, frames, tokens, vocab)

    def setup(self, wst, seed: int) -> LossInputs:
        rng = np.random.default_rng(np.random.SeedSequence([seed, self.tag]))
        logits, ys = draw_item(rng, *self.shape)
        small_logits, small_ys = draw_item(rng, 1, 4, 2, self.shape[3])
        # the library's default penalties, lambda1 = lambda2 = log(1/2)
        return LossInputs(logits, ys, small_logits, small_ys, wst.PenaltyConfig())

    def run_round(self, wst, inp: LossInputs) -> Round:
        rnd = Round()
        for crit in CRITERIA:
            penalties = inp.penalties if crit == "wst" else None
            # looked up on each call so that a traced round goes through the wrapper
            out = _call(rnd, crit, len(inp.ys), wst.loss.batched_grid_loss,
                        inp.logits, inp.ys, criterion=crit, penalties=penalties)
            if out is None:
                continue
            losses, grad = out
            if not np.all(np.isfinite(losses)):
                rnd.problems.append(f"{crit}: non-finite loss {losses}")
            try:
                ref.check_grad_rows(grad, crit)
            except ref.CheckFailed as exc:
                rnd.problems.append(str(exc))
            rnd.outputs[crit] = losses
        return rnd

    def check(self, wst, inp: LossInputs, rounds: List[Round]) -> None:
        first = rounds[0].outputs
        for rnd in rounds:
            for crit, losses in rnd.outputs.items():
                if crit in first and not np.array_equal(losses, first[crit]):
                    raise ref.CheckFailed(f"{crit}: loss differs between rounds")
        if all(c in first for c in CRITERIA):
            ref.check_dominance(first["rnnt"], first["wst"], self.name)
        for crit, losses in first.items():
            penalties = inp.penalties if crit == "wst" else None
            expected = ref.lattice_loss(wst, inp.logits[0], inp.ys[0].tolist(), penalties)
            ref.check_against_lattice(float(losses[0]), expected, f"{self.name} {crit} item 0")
        check_small_item(wst, inp.small_logits, inp.small_ys, inp.penalties, self.name)


def check_small_item(wst, logits, ys, penalties, what: str) -> None:
    """Lattice agreement, zero row sums and finite differences on one small item."""
    rng = np.random.default_rng(0)
    _, frames, cols, vocab = logits.shape
    coords = [(0, t, u, 0) for t in range(frames) for u in range(cols)]
    coords += [(0, t, u, int(ys[0, u])) for t in range(frames) for u in range(cols - 1)]
    coords += [(0, int(rng.integers(frames)), int(rng.integers(cols)), int(rng.integers(1, vocab)))
               for _ in range(8)]
    l_rnnt = None
    for crit in CRITERIA:
        pen = penalties if crit == "wst" else None
        losses, grad = wst.loss.batched_grid_loss(logits, ys, criterion=crit, penalties=pen)
        tag = f"{what} small {crit}"
        ref.check_against_lattice(float(losses[0]), ref.lattice_loss(wst, logits[0], ys[0].tolist(), pen), tag)
        ref.check_grad_rows(grad, tag)

        def f(z, crit=crit, pen=pen):
            return float(wst.loss.batched_grid_loss(z, ys, criterion=crit, penalties=pen)[0][0])

        ref.check_finite_differences(f, logits, grad, coords, tag)
        if l_rnnt is None:
            l_rnnt = losses
        else:
            ref.check_dominance(l_rnnt, losses, tag)


@dataclass
class TrainInputs:
    configs: Dict[str, object]
    clean: List[List[int]]
    noisy: List[List[int]]
    eval_set: list
    wer_checked: str  # the criterion whose eval WER is recomputed


class TrainWorkload:
    """``run_experiment`` on mixed-error transcripts at rate 0.5, once per criterion."""

    name = "train_mixed50"
    rate = 0.5
    warmup_rounds = 0  # a round is about 20 s, so a cold start is a small share of it

    def setup(self, wst, seed: int) -> TrainInputs:
        # the default task (seed 0); the run's seed picks the corruption, and seed 0
        # gives CorruptionSpec("mixed", 0.5, 7)
        task = wst.ToyTask()
        spec = wst.CorruptionSpec("mixed", self.rate, 7 + seed)
        train_set, eval_set = wst.generate_task_data(task)
        clean = [toks for _, toks in train_set]
        noisy = wst.corrupt_dataset(wst.Vocab(task.vocab_size), clean, spec)
        configs = {c: wst.ExperimentConfig(task=task, corruption=spec, criterion=c) for c in CRITERIA}
        # recomputing a WER means training again, so one criterion per run, by seed parity
        return TrainInputs(configs, clean, noisy, eval_set, CRITERIA[seed % 2])

    def run_round(self, wst, inp: TrainInputs) -> Round:
        rnd = Round()
        for crit in CRITERIA:
            cfg = inp.configs[crit]
            report = _call(rnd, crit, cfg.task.train_size * cfg.epochs, wst.run_experiment, cfg)
            if report is not None:
                rnd.outputs[crit] = report
        return rnd

    def check(self, wst, inp: TrainInputs, rounds: List[Round]) -> None:
        first = rounds[0].outputs
        for rnd in rounds:
            for crit, report in rnd.outputs.items():
                if crit in first and json.dumps(report, sort_keys=True) != json.dumps(first[crit], sort_keys=True):
                    raise ref.CheckFailed(f"{crit}: report differs between rounds")
        realized = ref.pooled_error_rate(inp.clean, inp.noisy)
        low, high = ref.mixed_calibration_band(self.rate, sum(len(t) for t in inp.clean))
        if not low <= realized <= high:
            raise ref.CheckFailed(f"realized error rate {realized:.4f} outside [{low:.4f}, {high:.4f}]")
        for crit, report in first.items():
            check_curve(report, crit)
            if abs(report["realized_error_rate"] - realized) > 1e-12:
                raise ref.CheckFailed(
                    f"{crit}: reported realized rate {report['realized_error_rate']} != {realized}")
            if crit == inp.wer_checked:
                check_eval_wer(wst, inp.configs[crit], report, inp.eval_set)
        if all(c in first for c in CRITERIA) and not first["wst"]["eval_wer"] < first["rnnt"]["eval_wer"]:
            raise ref.CheckFailed(
                f"wst eval WER {first['wst']['eval_wer']} is not below rnnt {first['rnnt']['eval_wer']}")


def check_curve(report: dict, what: str) -> None:
    curve = report["epochs"]
    if not all(math.isfinite(x) for x in curve) or not curve[-1] < curve[0]:
        raise ref.CheckFailed(f"{what}: epoch losses {curve[0]} .. {curve[-1]} do not fall")


def check_eval_wer(wst, cfg, report: dict, eval_set) -> None:
    """Recompute the pooled eval WER from the decoded hypotheses with the benchmark's own edit distance."""
    # run_experiment keeps its parameters to itself; training is deterministic,
    # so training again gives them back, which the identical loss curve confirms
    params, curve = wst.train(cfg)
    if curve != report["epochs"]:
        raise ref.CheckFailed(f"{cfg.criterion}: training again gave another loss curve")
    hyps = [wst.greedy_decode(params, feats, cfg.max_symbols_per_frame) for feats, _ in eval_set]
    recomputed = ref.pooled_error_rate([toks for _, toks in eval_set], hyps)
    if abs(recomputed - report["eval_wer"]) > 1e-12:
        raise ref.CheckFailed(
            f"{cfg.criterion}: eval_wer {report['eval_wer']} != Levenshtein WER {recomputed}")


WORKLOADS = {
    "train_mixed50": TrainWorkload(),
    "loss_long": LossWorkload("loss_long", 1, batch=2, frames=500, tokens=100, vocab=32),
    "loss_wide_vocab": LossWorkload("loss_wide_vocab", 2, batch=32, frames=24, tokens=8, vocab=1024),
}
