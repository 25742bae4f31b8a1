"""Minimal trainable transducer for desk-scale experiments.

The model mirrors the encoder / decoder / joiner factorization: a linear
encoder over per-frame features, a one-token embedding table as the stateless
decoder (the context for row u is just the previous transcript token, blank
for u=0), and an additive joiner h = tanh(f + g) followed by a linear
classification layer. All weights for a lattice — including star weights —
are read from the single logit tensor computed for the nominal transcript, so
no per-path decoder state exists anywhere.

Training is plain mini-batch gradient descent over fixed shuffles and
shape-grouped batches. Its reports are byte-identical for fixed seeds and a
fixed BLAS thread count (BLAS may sum in another order on more threads); the
tests and ``bench/run.py`` pin one thread.
"""

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .corruption import CorruptionSpec, corrupt_dataset, measure_corruption, score_corpus
from .corruption import edit_counts  # noqa: F401 -- bench/tracing.py wraps toytrain.edit_counts
from .exceptions import Divergence, NoPath, ShapeMismatch
from .graphs import PenaltyConfig, penalties_for, real_array
from .loss import batched_grid_loss
from .vocab import Vocab, check_field_types, validate_transcript

Utterance = Tuple[np.ndarray, List[int]]


@dataclass(frozen=True)
class ToyTask:
    """Synthetic task: token one-hots repeated per frame plus Gaussian noise."""

    vocab_size: int = 11
    frames_per_token: int = 3
    feature_noise: float = 0.2
    min_len: int = 3
    max_len: int = 8
    train_size: int = 400
    eval_size: int = 200
    seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        for name, low in (("vocab_size", 2), ("min_len", 1), ("train_size", 1), ("frames_per_token", 1),
                          ("eval_size", 1), ("seed", 0), ("feature_noise", 0)):
            if not low <= getattr(self, name) < math.inf:  # NaN fails too
                raise ValueError(f"{name} must be finite and >= {low}")
        if self.max_len < self.min_len:
            raise ValueError(f"max_len {self.max_len} is below min_len {self.min_len}")

    @property
    def feature_dim(self) -> int:
        return self.vocab_size - 1


@dataclass(frozen=True)
class ExperimentConfig:
    """One training cell.

    ``penalties`` (unused by ``"rnnt"``) defaults to PenaltyConfig(0.0, 0.0),
    not the library's PenaltyConfig() (ln 1/2), because acceptance criterion 7
    and the benchmark's ``train_mixed50`` cell train with it.
    """

    task: ToyTask = field(default_factory=ToyTask)
    corruption: CorruptionSpec = field(default_factory=lambda: CorruptionSpec("sub", 0.0, 7))
    criterion: str = "rnnt"
    penalties: PenaltyConfig = field(default_factory=lambda: PenaltyConfig(0.0, 0.0))
    hidden: int = 32
    learning_rate: float = 0.1
    epochs: int = 60
    batch_size: int = 64
    max_symbols_per_frame: int = 1

    def __post_init__(self):
        check_field_types(self)
        for name in ("epochs", "hidden", "batch_size", "max_symbols_per_frame"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not 0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be finite and > 0")
        penalties_for(self.criterion, self.penalties)  # rejects an unknown criterion


@dataclass
class ToyModelParams:
    encoder: np.ndarray       # [H, D]
    decoder_embed: np.ndarray  # [V, H]
    joiner_w: np.ndarray       # [V, H]
    joiner_b: np.ndarray       # [V]

    def fields(self) -> Tuple[np.ndarray, ...]:
        return (self.encoder, self.decoder_embed, self.joiner_w, self.joiner_b)


def _gen_split(task: ToyTask, rng: np.random.Generator, count: int) -> List[Utterance]:
    utts = []
    for _ in range(count):
        length = int(rng.integers(task.min_len, task.max_len + 1))
        toks = [int(t) for t in rng.integers(1, task.vocab_size, size=length)]
        feats = np.zeros((length * task.frames_per_token, task.feature_dim))
        for u, tok in enumerate(toks):
            feats[u * task.frames_per_token:(u + 1) * task.frames_per_token, tok - 1] = 1.0
        if task.feature_noise > 0:
            feats = feats + task.feature_noise * rng.standard_normal(feats.shape)
        utts.append((feats, toks))
    return utts


def generate_task_data(task: ToyTask) -> Tuple[List[Utterance], List[Utterance]]:
    """(train, eval) utterances, deterministic given task.seed.

    Eval transcripts are never corrupted; corruption is applied by the trainer
    to the training side only.
    """
    train_rng = np.random.default_rng(np.random.SeedSequence([task.seed, 0]))
    eval_rng = np.random.default_rng(np.random.SeedSequence([task.seed, 1]))
    return _gen_split(task, train_rng, task.train_size), _gen_split(task, eval_rng, task.eval_size)


def init_params(task: ToyTask, hidden: int, seed: int) -> ToyModelParams:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    d = task.feature_dim
    v = task.vocab_size
    return ToyModelParams(
        encoder=rng.standard_normal((hidden, d)) / np.sqrt(d),
        decoder_embed=rng.standard_normal((v, hidden)) * 0.5,
        joiner_w=rng.standard_normal((v, hidden)) / np.sqrt(hidden),
        joiner_b=np.zeros(v),
    )


def forward(params: ToyModelParams, features: np.ndarray, tokens: Sequence[int]) -> np.ndarray:
    """Logit tensor [T][U+1][|V|] for one utterance.

    A token that is not a real symbol raises VocabError. A feature that is
    not a finite real number raises ShapeMismatch, and so do parameters that
    give a NaN or infinite logit.
    """
    validate_transcript(Vocab(params.joiner_w.shape[0]), tokens)
    xs = real_array(features)[None]
    if not np.isfinite(xs).all():
        raise ShapeMismatch("features must be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        logits, _, _ = _forward_batch(params, xs, np.asarray([list(tokens)], dtype=int), {})
    if not np.isfinite(logits).all():
        raise ShapeMismatch("the parameters give non-finite logits")
    return logits[0]


def _scratch(pool: Dict[str, np.ndarray], name: str, shape: Tuple[int, ...]) -> np.ndarray:
    """An uninitialised float array of ``shape``.

    It is a view of the pool's grow-only buffer ``name``, valid until the next
    request for that name, so the steps of one ``train`` call reuse pages in
    place of faulting fresh ones in.
    """
    size = math.prod(shape)
    if name not in pool or pool[name].size < size:
        pool[name] = np.empty(size)
    return pool[name][:size].reshape(shape)


def _forward_batch(params: ToyModelParams, xs: np.ndarray, ys: np.ndarray, pool: Dict[str, np.ndarray]):
    """xs: [B, T, D]; ys: [B, U]. Returns (logits, tanh activations, contexts).

    The activations live in ``pool``'s buffer (see ``_scratch``).
    """
    if xs.ndim != 3 or xs.shape[-1] != params.encoder.shape[1]:
        raise ShapeMismatch(
            f"features of shape {xs.shape[1:]} do not match encoder input {params.encoder.shape[1]}")
    f = xs @ params.encoder.T                       # [B, T, H]
    b_sz, u_len = ys.shape
    ctx = np.concatenate([np.zeros((b_sz, 1), dtype=int), ys], axis=1)  # blank-prefixed
    g = params.decoder_embed[ctx]                   # [B, U+1, H]
    h = np.add(f[:, :, None, :], g[:, None, :, :],
               out=_scratch(pool, "h", (b_sz, f.shape[1], u_len + 1, f.shape[2])))
    np.tanh(h, out=h)
    logits = h.reshape(-1, h.shape[-1]) @ params.joiner_w.T
    logits += params.joiner_b
    return logits.reshape(*h.shape[:-1], params.joiner_w.shape[0]), h, ctx


def _backward_batch(params: ToyModelParams, xs, ctx, h, dlogits, pool: Dict[str, np.ndarray]) -> ToyModelParams:
    """Gradient of sum-loss with respect to the parameters; overwrites ``h``.

    The joiner products run on [B*T*(U+1), .] rows and the encoder product on
    [B*T, .] rows, as single 2-D matrix products. The tanh slope 1 - h^2 is
    written over ``h``, which is dead once the joiner weight gradient is taken.
    """
    hidden = h.shape[-1]
    h2 = h.reshape(-1, hidden)
    d2 = dlogits.reshape(-1, dlogits.shape[-1])
    db = dlogits.sum(axis=(0, 1, 2))
    dw = d2.T @ h2
    dpre = np.matmul(d2, params.joiner_w, out=_scratch(pool, "dpre", h2.shape))  # [B*T*(U+1), H]
    np.multiply(h2, h2, out=h2)
    np.subtract(1.0, h2, out=h2)
    dpre *= h2
    dpre = dpre.reshape(h.shape)
    df = dpre.sum(axis=2)                           # [B, T, H]
    dg = dpre.sum(axis=1)                           # [B, U+1, H]
    denc = df.reshape(-1, hidden).T @ xs.reshape(-1, xs.shape[-1])
    dembed = np.zeros_like(params.decoder_embed)
    np.add.at(dembed, ctx, dg)
    return ToyModelParams(denc, dembed, dw, db)


def _shape_grouped_batches(
    utts: List[Utterance], order: np.ndarray, batch_size: int
) -> List[List[int]]:
    groups: Dict[Tuple[int, int], List[int]] = {}
    for i in order:
        feats, toks = utts[i]
        groups.setdefault((feats.shape[0], len(toks)), []).append(int(i))
    batches = []
    for key in sorted(groups):
        idxs = groups[key]
        for s in range(0, len(idxs), batch_size):
            batches.append(idxs[s:s + batch_size])
    return batches


def train(config: ExperimentConfig) -> Tuple[ToyModelParams, List[float]]:
    """Mini-batch gradient descent on (possibly corrupted) training transcripts.

    Returns the trained parameters and the per-epoch mean training loss.
    Raises Divergence where the loss raised NoPath or the logits stopped being finite.
    """
    task = config.task
    vocab = Vocab(task.vocab_size)
    train_set, _ = generate_task_data(task)
    clean = [toks for _, toks in train_set]
    noisy = corrupt_dataset(vocab, clean, config.corruption)
    utts = [(feats, toks) for (feats, _), toks in zip(train_set, noisy)]

    params = init_params(task, config.hidden, task.seed)
    pool: Dict[str, np.ndarray] = {}  # the model passes' scratch buffers, owned by this call
    curve: List[float] = []
    for epoch in range(config.epochs):
        rng = np.random.default_rng(np.random.SeedSequence([task.seed, 3, epoch]))
        order = rng.permutation(len(utts))
        batches = _shape_grouped_batches(utts, order, config.batch_size)
        loss_sum = 0.0
        for b_idx, batch in enumerate(batches):
            xs = np.stack([utts[i][0] for i in batch])
            ys = np.asarray([utts[i][1] for i in batch], dtype=int).reshape(len(batch), -1)
            with np.errstate(over="ignore", invalid="ignore"):  # overflowed weights give non-finite logits
                logits, h, ctx = _forward_batch(params, xs, ys, pool)
            try:
                losses, dlogits = batched_grid_loss(
                    logits, ys, criterion=config.criterion, penalties=config.penalties)
            except (NoPath, ShapeMismatch) as exc:  # logits too large for the loss, or not finite
                raise Divergence(epoch, b_idx) from exc
            loss_sum += float(losses.sum())
            dlogits /= len(batch)
            grads = _backward_batch(params, xs, ctx, h, dlogits, pool)
            with np.errstate(over="ignore"):  # a diverging step overflows the weights
                for p, g in zip(params.fields(), grads.fields()):
                    p -= config.learning_rate * g
        curve.append(loss_sum / len(utts))
    return params, curve


def greedy_decode(params: ToyModelParams, features: np.ndarray, max_symbols_per_frame: int) -> List[int]:
    """Frame-synchronous greedy search on the trainer's forward pass; never emits blank or star.

    One ``_forward_batch`` call scores every frame after every one-token context.
    The search emits the argmax token while it is non-blank (it becomes the context,
    up to ``max_symbols_per_frame`` per frame), otherwise advances to the next frame.
    The cap has no default: experiments decode with ``ExperimentConfig.max_symbols_per_frame``.
    """
    cap = max_symbols_per_frame
    if isinstance(cap, bool) or not isinstance(cap, (int, np.integer)) or cap < 1:
        raise ValueError(f"max_symbols_per_frame must be an integer >= 1, got {cap!r}")
    # row c of a frame's [V, V] table holds the logits after context c
    table = forward(params, features, range(1, params.joiner_w.shape[0]))
    out: List[int] = []
    ctx = 0  # blank context
    for frame in table:
        for _ in range(cap):
            best = int(np.argmax(frame[ctx]))
            if best == 0:
                break
            out.append(best)
            ctx = best
    return out


def evaluate(params: ToyModelParams, eval_set: List[Utterance], max_symbols_per_frame: int) -> Dict:
    """Pooled edit counts and rates over the eval set (``score_corpus``); WER is ``error_rate``."""
    hyps = [greedy_decode(params, feats, max_symbols_per_frame) for feats, _ in eval_set]
    return score_corpus([toks for _, toks in eval_set], hyps)


def run_experiment(config: ExperimentConfig) -> Dict:
    """Train, greedily decode the clean eval set, and report metrics.

    The report is a plain JSON-serializable dict; identical configs produce
    identical reports (for a fixed BLAS thread count).
    """
    params, curve = train(config)
    train_set, eval_set = generate_task_data(config.task)
    scores = evaluate(params, eval_set, config.max_symbols_per_frame)
    clean_train = [toks for _, toks in train_set]
    realized = measure_corruption(Vocab(config.task.vocab_size), clean_train, config.corruption)
    return {
        "config": config_to_dict(config),
        "criterion": config.criterion,
        "epochs": curve,
        "eval_wer": scores["error_rate"],
        **{f"eval_{kind}_rate": scores[f"{kind}_rate"] for kind in ("sub", "ins", "del")},
        "realized_error_rate": realized["error_rate"],
    }


def config_to_dict(config: ExperimentConfig) -> Dict:
    return dataclasses.asdict(config)


def _from_dict(cls, d, where: str):
    """``cls`` from JSON object ``d``, unknown keys rejected; dataclass fields recurse."""
    if not isinstance(d, dict):
        raise ValueError(f"{where} must be a JSON object, got {type(d).__name__}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = sorted(set(d) - set(fields))
    missing = [k for k, f in fields.items() if k not in d and f.default is f.default_factory is dataclasses.MISSING]
    if unknown or missing:
        raise ValueError(f"unknown key {unknown[0]!r} in {where}" if unknown else f"{where} needs key {missing[0]!r}")
    return cls(**{k: _from_dict(fields[k].type, v, k) if dataclasses.is_dataclass(fields[k].type) else v
                  for k, v in d.items()})


def config_from_dict(d: Dict) -> ExperimentConfig:
    return _from_dict(ExperimentConfig, d, "config")
