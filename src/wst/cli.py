"""Command-line surface.

Subcommands: graph, loss, corrupt, score, train, sweep. All results go to
stdout (or --output) as JSON / JSONL; diagnostics go to stderr. Exit codes:
0 success, 1 domain error, 2 usage error.

Tensor files are JSON: {"T": t, "U": u, "V": v, "kind": "logits"|"logprobs",
"data": [row-major T*(U+1)*V doubles]}. Token lists are comma-separated
integers; the empty string is the empty transcript. --lambda1/--lambda2
accept the literal -inf (use the --flag=value form).
"""

import argparse
import dataclasses
import json
import math
import sys
from typing import List, Optional

import numpy as np

from . import corruption, graphs, loss, oracle, toytrain, wfst
from .exceptions import WstError
from .vocab import Vocab


def _parse_tokens(text: str) -> List[int]:
    text = text.strip()
    if not text:
        return []
    return [int(p) for p in text.split(",")]


def _parse_lambda(text: str) -> float:
    v = float(text)
    if math.isnan(v):
        raise argparse.ArgumentTypeError("lambda must not be NaN")
    return v


def _load_tensor(path: str):
    with open(path) as fh:
        obj = json.load(fh)
    t, u, v = int(obj["T"]), int(obj["U"]), int(obj["V"])
    data = np.asarray(obj["data"], dtype=float)
    if data.size != t * (u + 1) * v:
        raise WstError(f"tensor file {path}: data has {data.size} values, expected {t * (u + 1) * v}")
    kind = obj.get("kind", "logits")
    if kind not in ("logits", "logprobs"):
        raise WstError(f"tensor file {path}: kind must be 'logits' or 'logprobs'")
    return data.reshape(t, u + 1, v), kind


def _emit(args, text: str) -> None:
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _symbols(vocab: Vocab):
    return {wfst.EPSILON: "eps", vocab.blank_id: "blk", vocab.star_id: "star"}


def cmd_graph(args) -> int:
    tokens = _parse_tokens(args.tokens)
    vocab_size = args.vocab_size or max(tokens, default=1) + 1
    vocab = Vocab(vocab_size)
    # penalties are the one switch between each plain graph and its weakly supervised form
    penalties = (graphs.PenaltyConfig(args.lambda1, args.lambda2)
                 if args.type in ("wst", "ws-transcript") else None)
    if args.type in ("rnnt", "wst"):
        if args.tensor:
            tensor, kind = _load_tensor(args.tensor)
            lp = loss.log_softmax(tensor) if kind == "logits" else tensor
        else:
            t_len = args.frames
            if t_len is None:
                raise WstError("--frames is required for lattice graphs without --tensor")
            lp = np.full((t_len, len(tokens) + 1, vocab_size), -math.log(vocab_size))
        g = graphs._grid_lattice(vocab, tokens, lp, penalties)
    else:
        g = graphs._chain(vocab, tokens, penalties)
    if args.out == "dot":
        _emit(args, wfst.export_dot(g, _symbols(vocab)))
    else:
        _emit(args, wfst.export_json(g) + "\n")
    return 0


def cmd_loss(args) -> int:
    tokens = _parse_tokens(args.tokens)
    tensor, kind = _load_tensor(args.tensor)
    penalties = graphs.PenaltyConfig(args.lambda1, args.lambda2) if args.criterion == "wst" else None
    grad_wrt = "logits" if kind == "logits" else "logprobs"
    losses, grads = loss.batched_grid_loss(tensor[None], [tokens], args.criterion, penalties, grad_wrt)
    value = float(losses[0])
    report = {"criterion": args.criterion, "loss": value}
    if args.grad:
        report["grad"] = grads[0].reshape(-1).tolist()
    if args.oracle:
        oracle_value = oracle.brute_force_loss(
            tensor, tokens, criterion=args.criterion, penalties=penalties)
        report["oracle_loss"] = oracle_value
        report["oracle_discrepancy"] = abs(oracle_value - value)
    _emit(args, json.dumps(report) + "\n")
    return 0


def _read_jsonl(path: str):
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                rows.append(json.loads(line))
    return rows


def cmd_corrupt(args) -> int:
    vocab = Vocab(args.vocab_size)
    spec = corruption.CorruptionSpec(args.kind, args.rate, args.seed)
    rows = _read_jsonl(args.input)
    noisy = corruption.corrupt_dataset(vocab, [r["tokens"] for r in rows], spec)
    out = "".join(
        json.dumps({"id": r["id"], "tokens": toks}) + "\n" for r, toks in zip(rows, noisy)
    )
    _emit(args, out)
    return 0


def cmd_score(args) -> int:
    refs = {r["id"]: r["tokens"] for r in _read_jsonl(args.ref)}
    hyps = {r["id"]: r["tokens"] for r in _read_jsonl(args.hyp)}
    missing = sorted(set(refs) - set(hyps))
    if missing:
        raise WstError(f"hypotheses missing for ids: {missing[:5]}")
    counts = corruption.score_corpus(refs.values(), [hyps[uid] for uid in refs])
    if counts["total_ref_tokens"] == 0:
        raise WstError("reference corpus is empty; WER undefined")
    report = {
        "wer": counts["error_rate"],
        "sub": counts["sub_count"],
        "ins": counts["ins_count"],
        "del": counts["del_count"],
        "ref_tokens": counts["total_ref_tokens"],
    }
    _emit(args, json.dumps(report) + "\n")
    return 0


def cmd_train(args) -> int:
    with open(args.config) as fh:
        config = toytrain.config_from_dict(json.load(fh))
    report = toytrain.run_experiment(config)
    _emit(args, json.dumps(report) + "\n")
    return 0


DEFAULT_RATES = (0.0, 0.1, 0.3, 0.5, 0.7)
DEFAULT_KINDS = ("sub", "ins", "del", "mixed")


def sweep_cells(rates=DEFAULT_RATES, kinds=DEFAULT_KINDS, criteria=("rnnt", "wst")):
    for kind in kinds:
        for rate in rates:
            for criterion in criteria:
                yield criterion, kind, rate


def cmd_sweep(args) -> int:
    base = toytrain.ExperimentConfig()
    if args.config:
        with open(args.config) as fh:
            base = toytrain.config_from_dict(json.load(fh))
    done = set()
    if args.resume:
        try:
            for row in _read_jsonl(args.output):
                done.add((row["criterion"], row["kind"], row["rate"]))
        except FileNotFoundError:
            pass
    mode = "a" if args.resume and done else "w"
    rates = [float(r) for r in args.rates.split(",")] if args.rates else list(DEFAULT_RATES)
    kinds = args.kinds.split(",") if args.kinds else list(DEFAULT_KINDS)
    with open(args.output, mode) as fh:
        for criterion, kind, rate in sweep_cells(rates, kinds):
            if (criterion, kind, rate) in done:
                continue
            config = dataclasses.replace(
                base, corruption=corruption.CorruptionSpec(kind, rate, base.corruption.seed),
                criterion=criterion)
            report = toytrain.run_experiment(config)
            row = {
                "criterion": criterion,
                "kind": kind,
                "rate": rate,
                "eval_wer": report["eval_wer"],
                "realized_error_rate": report["realized_error_rate"],
                "final_train_loss": report["epochs"][-1],
            }
            fh.write(json.dumps(row) + "\n")
            fh.flush()
            print(f"cell criterion={criterion} kind={kind} rate={rate} "
                  f"wer={row['eval_wer']:.4f}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wst", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("graph", help="build and export transcript graphs and lattices")
    p.add_argument("--type", required=True, choices=["transcript", "ws-transcript", "rnnt", "wst"])
    p.add_argument("--tokens", required=True, help="comma-separated token ids; '' for empty")
    p.add_argument("--frames", type=int, help="frame count T (lattices without --tensor)")
    p.add_argument("--tensor", help="JSON tensor file to read weights from")
    p.add_argument("--vocab-size", type=int, help="|V| including blank (default: max token + 1)")
    p.add_argument("--lambda1", type=_parse_lambda, default=graphs.LN_HALF)
    p.add_argument("--lambda2", type=_parse_lambda, default=graphs.LN_HALF)
    p.add_argument("--out", choices=["dot", "json"], default="json")
    p.add_argument("--output", help="write to this path instead of stdout")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("loss", help="compute a loss (and optionally gradient / oracle check)")
    p.add_argument("--criterion", required=True, choices=["rnnt", "wst"])
    p.add_argument("--tensor", required=True)
    p.add_argument("--tokens", required=True)
    p.add_argument("--lambda1", type=_parse_lambda, default=graphs.LN_HALF)
    p.add_argument("--lambda2", type=_parse_lambda, default=graphs.LN_HALF)
    p.add_argument("--grad", action="store_true")
    p.add_argument("--oracle", action="store_true", help="also compute the brute-force loss")
    p.add_argument("--output")
    p.set_defaults(func=cmd_loss)

    p = sub.add_parser("corrupt", help="corrupt a JSONL token dataset")
    p.add_argument("--input", required=True)
    p.add_argument("--output")
    p.add_argument("--vocab-size", type=int, required=True)
    p.add_argument("--kind", required=True, choices=list(corruption.KINDS))
    p.add_argument("--rate", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_corrupt)

    p = sub.add_parser("score", help="WER between reference and hypothesis JSONL files")
    p.add_argument("--ref", required=True)
    p.add_argument("--hyp", required=True)
    p.add_argument("--output")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("train", help="run one toy training experiment from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--output")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sweep", help="run the criterion x kind x rate grid")
    p.add_argument("--output", required=True, help="JSONL results path (flushed per cell)")
    p.add_argument("--config", help="base experiment config JSON")
    p.add_argument("--rates", help="comma-separated corruption rates")
    p.add_argument("--kinds", help="comma-separated corruption kinds")
    p.add_argument("--resume", action="store_true", help="skip cells already in the output file")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (WstError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
