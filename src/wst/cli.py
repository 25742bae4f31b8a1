"""Command-line surface.

Subcommands: graph, loss, corrupt, score, train, sweep. All results go to
stdout (or --output) as JSON / JSONL; diagnostics go to stderr. Exit codes:
0 success, 1 domain error, 2 usage error.

Tensor files are JSON: {"T": t, "U": u, "V": v, "kind": "logits"|"logprobs",
"data": [row-major T*(U+1)*V finite JSON numbers]}; each row of a logprobs
file must log-sum to 0 within 1e-6. Every input file is read as UTF-8 JSON
(or JSONL), and one that is not is an error naming it. Token lists are
comma-separated integers; the empty string is the empty transcript.
--lambda1/--lambda2 accept the literal -inf (use the --flag=value form).
"""

import argparse
import dataclasses
import itertools
import json
import math
import os
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


def _read_json(path: str, lines: bool = False):
    """The JSON value in ``path``, or with ``lines`` its non-blank lines' values; a WstError names a bad file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return [json.loads(line) for line in fh if line.strip()] if lines else json.load(fh)
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep to parse
        raise WstError(f"{path}: not a UTF-8 JSON{'L' if lines else ''} file ({exc})")


def _load_tensor(path: str):
    obj = _read_json(path)
    try:
        t, u, v, data = obj["T"], obj["U"], obj["V"], obj["data"]
        if type(data) is not list or not all(type(x) in (int, float) for x in data):
            raise TypeError("data is not a flat list of JSON numbers")
        data = np.asarray(data, dtype=float)
    except (TypeError, KeyError, OverflowError) as exc:
        raise WstError(f"tensor file {path}: need an object with integer T, U, V and numeric data ({exc!r})")
    if not all(type(n) is int and n >= 0 for n in (t, u, v)):
        raise WstError(f"tensor file {path}: T, U and V must be integers >= 0, got {t!r}, {u!r}, {v!r}")
    if data.size != t * (u + 1) * v:
        raise WstError(f"tensor file {path}: data has {data.size} values, expected {t * (u + 1) * v}")
    if not np.isfinite(data).all():
        raise WstError(f"tensor file {path}: data must be finite")
    kind = obj.get("kind", "logits")
    if kind not in ("logits", "logprobs"):
        raise WstError(f"tensor file {path}: kind must be 'logits' or 'logprobs'")
    if kind == "logprobs" and v and not (abs(np.logaddexp.reduce(data.reshape(-1, v), -1)) <= 1e-6).all():
        raise WstError(f"tensor file {path}: logprobs rows must log-sum to 0 within 1e-6")
    return data.reshape(t, u + 1, v), kind


def _emit(args, text: str) -> None:
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_graph(args) -> int:
    tokens = _parse_tokens(args.tokens)
    lattice = args.type in ("rnnt", "wst")
    lp = None
    if lattice and args.tensor:
        tensor, kind = _load_tensor(args.tensor)
        lp = loss.log_softmax(tensor) if kind == "logits" else tensor
    elif lattice and (args.frames is None or args.frames < 1):
        raise WstError(f"--frames must be >= 1 for lattice graphs without --tensor, got {args.frames}")
    default_size = max(tokens, default=1) + 1 if lp is None else lp.shape[-1]
    vocab = Vocab(default_size if args.vocab_size is None else args.vocab_size)
    # penalties are the one switch between each plain graph and its weakly supervised form
    penalties = (graphs.PenaltyConfig(args.lambda1, args.lambda2)
                 if args.type in ("wst", "ws-transcript") else None)
    if lattice and lp is None:
        lp = np.full((args.frames, len(tokens) + 1, vocab.size), -math.log(vocab.size))
    g = graphs._grid_lattice(vocab, tokens, lp, penalties) if lattice else graphs._chain(vocab, tokens, penalties)
    if args.out == "dot":
        _emit(args, wfst.export_dot(g, {vocab.star_id: "star"}))
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


def _read_token_rows(path: str):
    """The rows of a JSONL file of {"id": string or integer, "tokens": [integers]} objects."""
    rows = _read_json(path, lines=True)
    if not all(isinstance(r, dict) and type(r.get("id")) in (str, int) and isinstance(r.get("tokens"), list)
               and all(type(tok) is int for tok in r["tokens"]) for r in rows):
        raise WstError(f'{path}: every row must be {{"id": string or integer, "tokens": [integers]}}')
    return rows


def cmd_corrupt(args) -> int:
    vocab = Vocab(args.vocab_size)
    spec = corruption.CorruptionSpec(args.kind, args.rate, args.seed)
    rows = _read_token_rows(args.input)
    noisy = corruption.corrupt_dataset(vocab, [r["tokens"] for r in rows], spec)
    out = "".join(
        json.dumps({"id": r["id"], "tokens": toks}) + "\n" for r, toks in zip(rows, noisy)
    )
    _emit(args, out)
    return 0


def _tokens_by_id(path: str):
    """The token lists of a row file keyed by id; a WstError names the file if an id repeats."""
    rows = _read_token_rows(path)
    by_id = {r["id"]: r["tokens"] for r in rows}
    if len(by_id) < len(rows):
        raise WstError(f"{path}: every id must be unique")
    return by_id


def cmd_score(args) -> int:
    refs, hyps = _tokens_by_id(args.ref), _tokens_by_id(args.hyp)
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
    config = toytrain.config_from_dict(_read_json(args.config))
    report = toytrain.run_experiment(config)
    _emit(args, json.dumps(report) + "\n")
    return 0


DEFAULT_RATES = (0.0, 0.1, 0.3, 0.5, 0.7)


def cmd_sweep(args) -> int:
    base = toytrain.config_from_dict(_read_json(args.config)) if args.config else toytrain.ExperimentConfig()
    rates = list(DEFAULT_RATES) if args.rates is None else [float(r) for r in args.rates.split(",")]
    kinds = list(corruption.KINDS) if args.kinds is None else args.kinds.split(",")
    # the whole grid is checked before --output is opened or a cell is trained
    for flag, values in (("--rates", rates), ("--kinds", kinds)):
        repeated = next((x for i, x in enumerate(values) if x in values[:i]), None)
        if repeated is not None:
            raise WstError(f"{flag} repeats {repeated!r}")
    specs = [corruption.CorruptionSpec(kind, rate, base.corruption.seed)
             for kind, rate in itertools.product(kinds, rates)]
    rows = _read_json(args.output, lines=True) if args.resume and os.path.exists(args.output) else []
    if not all(isinstance(r, dict) and type(r.get("criterion")) is str and type(r.get("kind")) is str
               and type(r.get("rate")) in (int, float) for r in rows):
        raise WstError(f'{args.output}: every row must have a string "criterion" and "kind" and a numeric "rate"')
    done = {(r["criterion"], r["kind"], r["rate"]) for r in rows}
    mode = "a" if done else "w"
    with open(args.output, mode) as fh:
        for spec, criterion in itertools.product(specs, ("rnnt", "wst")):
            kind, rate = spec.kind, spec.rate
            if (criterion, kind, rate) in done:
                continue
            config = dataclasses.replace(base, corruption=spec, criterion=criterion)
            report = toytrain.run_experiment(config)
            row = {
                "criterion": criterion,
                "kind": kind,
                "rate": rate,
                **{k: report[k] for k in ("eval_wer", "eval_sub_rate", "eval_ins_rate", "eval_del_rate")},
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
    p.add_argument("--vocab-size", type=int,
                   help="|V| including blank (default: the tensor's V, else max token + 1)")
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
    except (WstError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
