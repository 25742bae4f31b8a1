"""One property suite for the input contract of every public entry point.

Each call on arbitrary input returns a NaN-free result or raises a typed
error: ``WstError``, or ``ValueError`` where the CLI maps it to exit 1.
``cli.main`` returns 0 or 1 on arbitrary JSON or raw file contents and
never raises. The loss kernel, the oracle and the lattice builder check one
grid contract, so on finite logits they fail alike or succeed alike. Settings
are fixed here (derandomized, no example database) so that Tier-1 stays
deterministic and its added time bounded.
"""

import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from wst import cli
from wst.corruption import CorruptionSpec, corrupt, score_corpus, wer
from wst.exceptions import NoPath, WstError
from wst.graphs import (LN_HALF, PenaltyConfig, build_rnnt_lattice, build_transcript_graph,
                        build_ws_transcript_graph, build_wst_lattice)
from wst.loss import batched_grid_loss, log_softmax, rnnt_loss, wst_loss
from wst.oracle import brute_force_loss
from wst.toytrain import config_from_dict
from wst.vocab import Vocab
from wst.wfst import arc_posteriors, total_weight

CONTRACT = settings(derandomize=True, max_examples=150, deadline=None, database=None,
                    suppress_health_check=[HealthCheck.too_slow])
SLOW_CONTRACT = settings(CONTRACT, max_examples=80)  # JSON drawing and file round trips

SPECIAL = [math.nan, math.inf, -math.inf, 1e308, -1e308, 0.0]
values = st.one_of(st.sampled_from(SPECIAL), st.floats(-4, 4), st.floats(allow_nan=True))
tensors = arrays(np.float64, array_shapes(min_dims=0, max_dims=5, min_side=0, max_side=3), elements=values)
grids = arrays(np.float64, array_shapes(min_dims=3, max_dims=4, min_side=0, max_side=3), elements=values)
token = st.one_of(st.integers(-2, 6), st.sampled_from([0, -1, 2**64, 1.0, 2.0, 1.5, True, False,
                                                      math.nan, "1", "a", None]))
tokens = st.lists(token, max_size=3)
int_tokens = st.lists(st.integers(-1, 4), max_size=3)
vocabs = st.integers(2, 5).map(Vocab)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 2**64) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=12)


def _nan_free(result) -> bool:
    if isinstance(result, dict):
        return all(_nan_free(v) for v in result.values())
    if isinstance(result, (tuple, list)):
        return all(_nan_free(v) for v in result)
    if isinstance(result, (float, np.ndarray, np.floating)):
        return not np.isnan(result).any()
    return True


def _outcome(call):
    """("ok", result) or (exception type, message); only typed errors may escape the call."""
    try:
        result = call()
    except (WstError, ValueError) as exc:
        return type(exc), str(exc)
    assert _nan_free(result), result
    return "ok", result


@CONTRACT
@given(z=tensors, toks=st.one_of(tokens.map(lambda t: [t]), tokens),
       criterion=st.sampled_from(["rnnt", "wst"]), grad_wrt=st.sampled_from(["logits", "logprobs"]))
def test_batched_grid_loss(z, toks, criterion, grad_wrt):
    _outcome(lambda: batched_grid_loss(z, toks, criterion, None, grad_wrt))


@CONTRACT
@given(z=tensors, toks=tokens)
def test_single_item_losses_and_log_softmax(z, toks):
    _outcome(lambda: rnnt_loss(z, toks))
    _outcome(lambda: wst_loss(z, toks, None, grad_wrt="logprobs"))
    _outcome(lambda: log_softmax(z))


@CONTRACT
@given(vocab=vocabs, toks=tokens, lp=grids.filter(lambda a: a.ndim == 3) | tensors)
def test_builders_and_lattice_scores(vocab, toks, lp):
    _outcome(lambda: build_transcript_graph(vocab, toks))
    _outcome(lambda: build_ws_transcript_graph(vocab, toks, None))
    for build in (lambda: build_rnnt_lattice(vocab, toks, lp), lambda: build_wst_lattice(vocab, toks, lp, None)):
        kind, g = _outcome(build)
        if kind == "ok":
            _outcome(lambda: total_weight(g))
            _outcome(lambda: arc_posteriors(g))


@CONTRACT
@given(z=grids | tensors, toks=tokens, criterion=st.sampled_from(["rnnt", "wst"]))
def test_brute_force_loss(z, toks, criterion):
    _outcome(lambda: brute_force_loss(z, toks, criterion, max_paths=50))


@SLOW_CONTRACT
@given(vocab=vocabs, toks=tokens, refs=st.lists(tokens, max_size=3), hyps=st.lists(tokens, max_size=3),
       kind=st.sampled_from(["sub", "ins", "del", "mixed"]), rate=st.floats(0, 1), config=json_values)
def test_corruption_scoring_and_config(vocab, toks, refs, hyps, kind, rate, config):
    _outcome(lambda: corrupt(vocab, toks, CorruptionSpec(kind, rate, 3)))
    _outcome(lambda: wer(toks, hyps[0] if hyps else []))
    _outcome(lambda: score_corpus(refs, hyps))
    _outcome(lambda: config_from_dict(config))


@st.composite
def tensor_files(draw):
    """A tensor file object whose T, U, V and data agree, for the checks past the file format."""
    t, u, v = (draw(st.sampled_from(choices)) for choices in ([1, 2, 0], [1, 1, -1, 0], [3, 3, 0, 1, 2]))
    size = max(0, t * (u + 1) * v)
    data = draw(st.lists(st.floats(-4, 4), min_size=size, max_size=size) |
                st.lists(values, min_size=size, max_size=size))
    return {"T": t, "U": u, "V": v, "data": data, "kind": draw(st.sampled_from(["logits", "logprobs"]))}


# raw file bytes, none of them a JSON object: text, broken UTF-8 and nesting too deep to parse
raw_files = (st.binary(max_size=8) | st.text(max_size=8).map(str.encode)).filter(lambda b: b"{" not in b) | \
    st.sampled_from([b'{"T": 1', b"\xff\xfe[]", b"[" * 100_000, b'{"id": 0, "tokens": [1]}\n\x80\n'])


@SLOW_CONTRACT
@given(tensor=tensor_files() | json_values | raw_files | st.fixed_dictionaries(
           {"T": json_values, "U": json_values, "V": json_values, "data": json_values, "kind": json_values}),
       rows=raw_files | st.lists(json_values | st.fixed_dictionaries({"id": json_values, "tokens": json_values}) |
                                 st.fixed_dictionaries({"id": st.integers(0, 1), "tokens": int_tokens}), max_size=3),
       criterion=st.sampled_from(["rnnt", "wst"]))
def test_cli_never_raises(tmp_path_factory, tensor, rows, criterion):
    tmp = tmp_path_factory.mktemp("cli")
    (tmp / "t.json").write_bytes(tensor if isinstance(tensor, bytes) else json.dumps(tensor).encode())
    (tmp / "rows.jsonl").write_bytes(rows if isinstance(rows, bytes) else
                                     "".join(json.dumps(r) + "\n" for r in rows).encode())
    (tmp / "ref.jsonl").write_text('{"id": 0, "tokens": [1, 2]}\n')
    argvs = [
        ["loss", "--criterion", criterion, "--tensor", str(tmp / "t.json"), "--tokens", "1", "--grad"],
        ["graph", "--type", criterion, "--tokens", "1", "--vocab-size", "3", "--tensor", str(tmp / "t.json")],
        ["score", "--ref", str(tmp / "ref.jsonl"), "--hyp", str(tmp / "rows.jsonl")],
        ["score", "--ref", str(tmp / "rows.jsonl"), "--hyp", str(tmp / "rows.jsonl")],
        ["corrupt", "--input", str(tmp / "rows.jsonl"), "--vocab-size", "4", "--kind", "mixed", "--rate", "0.5"],
    ]
    if not isinstance(tensor, dict):  # a JSON object may be a valid config, and train would run it
        argvs.append(["train", "--config", str(tmp / "t.json")])
    for argv in argvs:  # all well-formed, so argparse never exits
        assert cli.main(argv + ["--output", str(tmp / "out")]) in (0, 1), argv


def _assert_agree(z, toks):
    """The kernel, the single-item loss, the oracle and the builder fail alike or all succeed."""
    outcomes = [
        _outcome(lambda: rnnt_loss(z, toks)[0]),
        _outcome(lambda: float(batched_grid_loss(z[None], [toks])[0][0])),
        _outcome(lambda: brute_force_loss(z, toks, max_paths=100)),
        _outcome(lambda: build_rnnt_lattice(Vocab(z.shape[-1]), toks, log_softmax(z))),
    ]
    if all(kind == "ok" for kind, _ in outcomes):
        assert math.isclose(outcomes[0][1], outcomes[2][1], rel_tol=1e-9, abs_tol=1e-9)
    else:
        assert all(o == outcomes[0] for o in outcomes), outcomes


@CONTRACT
@given(data=st.data(), toks=tokens, t_len=st.integers(0, 3), v_size=st.integers(2, 4))
def test_kernel_oracle_and_builder_agree(data, toks, t_len, v_size):
    # finite logits small enough that no row overflows log-softmax, so no item loses every path
    rows = data.draw(st.sampled_from([len(toks) + 1, 0, 1, 2]))
    _assert_agree(data.draw(arrays(np.float64, (t_len, rows, v_size), elements=st.floats(-8, 8))), toks)


@pytest.mark.parametrize("shape, toks", [((0, 2, 4), [0]), ((2, 3, 4), [7]), ((2, 3, 4), [1, True])],
                         ids=["no frame and a blank", "row count and out of vocabulary", "bool among ints"])
def test_multi_fault_inputs_fail_alike(shape, toks):
    _assert_agree(np.zeros(shape), toks)


LAMBDAS = st.sampled_from([-math.inf, -30.0, LN_HALF, 0.0, 30.0, 700.0, 1e300])


@settings(CONTRACT, max_examples=400)
@given(seed=st.integers(0, 2**32 - 1),
       shape=st.tuples(st.integers(1, 3), st.integers(1, 4), st.integers(0, 3), st.integers(2, 6)),
       scale=st.one_of(st.floats(-1, 16), st.floats(16, 300)), boost=st.one_of(st.just(0.0), st.floats(30, 745)),
       lambdas=st.tuples(LAMBDAS, LAMBDAS), criterion=st.sampled_from(["rnnt", "wst"]),
       grad_wrt=st.sampled_from(["logits", "logprobs"]))
def test_kernel_is_finite_or_no_path(seed, shape, scale, boost, lambdas, criterion, grad_wrt):
    """The conservation residual is the kernel's one failure test: past it, the loss and gradient are finite.

    Logits x1e10 to x1e16 lose the path count, larger ones overflow exp, and a
    boosted blank column drives p_blank to 1, where the star factor -p/(1-p) is
    huge or infinite.
    """
    b_sz, t_len, u_len, v_size = shape
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((b_sz, t_len, u_len + 1, v_size)) * 10.0 ** scale
    z[..., 0] += boost
    ys = rng.integers(1, v_size, (b_sz, u_len))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # positive penalties warn
        penalties = PenaltyConfig(*lambdas)
    try:
        losses, grad = batched_grid_loss(z, ys, criterion, penalties, grad_wrt)
    except NoPath as exc:
        assert int(re.search(r"item (\d+)", str(exc)).group(1)) < b_sz
        return
    assert np.isfinite(losses).all() and np.isfinite(grad).all()
