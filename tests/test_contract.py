"""One property suite for the input contract of every public entry point.

Each call on arbitrary input returns a result free of NaN and +inf or raises
a typed error: ``WstError``, or ``ValueError`` where the CLI maps it to exit 1.
``cli.main`` returns 0 or 1 on arbitrary JSON or raw file contents and
never raises. The loss kernel, the oracle and the lattice builder check one
grid contract, so on finite logits they fail alike or succeed alike. Settings
are fixed here (derandomized, no example database) so that Tier-1 stays
deterministic and its added time bounded.
"""

import contextlib
import io
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from wst import cli
from wst.corruption import CorruptionSpec, corrupt, score_corpus
from wst.exceptions import NoPath, WstError
from wst.graphs import (LN_HALF, PenaltyConfig, build_rnnt_lattice, build_transcript_graph,
                        build_ws_transcript_graph, build_wst_lattice, star_log_prob)
from wst.loss import batched_grid_loss, log_softmax, rnnt_loss, wst_loss
from wst.oracle import brute_force_loss
from wst.toytrain import config_from_dict
from wst.vocab import Vocab
from wst.wfst import (Arc, Wfst, arc_posteriors, export_dot, export_json, topo_sort, total_weight,
                      wfst_from_json)

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
penalties = (st.none() | st.sampled_from([PenaltyConfig(), PenaltyConfig(0.0, -math.inf)]) |
             st.tuples(st.floats(), st.floats()) | st.text(max_size=3) |
             st.dictionaries(st.sampled_from(["lambda1", "lambda2"]), st.floats()))
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 2**64) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=12)


def _clean(result) -> bool:
    """No NaN and no +inf anywhere in the result; -inf is the log of zero."""
    if isinstance(result, dict):
        return all(_clean(v) for v in result.values())
    if isinstance(result, (tuple, list)):
        return all(_clean(v) for v in result)
    if isinstance(result, (float, np.ndarray, np.floating)):
        return not (np.isnan(result) | (result == math.inf)).any()
    return True


def _outcome(call):
    """("ok", result) or (exception type, message); only typed errors may escape the call."""
    try:
        result = call()
    except (WstError, ValueError) as exc:
        return type(exc), str(exc)
    assert _clean(result), result
    return "ok", result


@CONTRACT
@given(z=tensors, toks=st.one_of(tokens.map(lambda t: [t]), tokens),
       criterion=st.sampled_from(["rnnt", "wst"]), pen=penalties, grad_wrt=st.sampled_from(["logits", "logprobs"]))
def test_batched_grid_loss(z, toks, criterion, pen, grad_wrt):
    _outcome(lambda: batched_grid_loss(z, toks, criterion, pen, grad_wrt))


@CONTRACT
@given(z=tensors, toks=tokens, pen=penalties)
def test_single_item_losses_and_log_softmax(z, toks, pen):
    _outcome(lambda: rnnt_loss(z, toks))
    _outcome(lambda: wst_loss(z, toks, pen, grad_wrt="logprobs"))
    _outcome(lambda: log_softmax(z))


@CONTRACT
@given(vocab=vocabs, toks=tokens, lp=grids.filter(lambda a: a.ndim == 3) | tensors, pen=penalties)
def test_builders_and_lattice_scores(vocab, toks, lp, pen):
    _outcome(lambda: build_transcript_graph(vocab, toks))
    _outcome(lambda: build_ws_transcript_graph(vocab, toks, pen))
    for build in (lambda: build_rnnt_lattice(vocab, toks, lp), lambda: build_wst_lattice(vocab, toks, lp, pen)):
        kind, g = _outcome(build)
        if kind == "ok":
            _outcome(lambda: total_weight(g))
            _outcome(lambda: arc_posteriors(g))


@CONTRACT
@given(blank=st.sampled_from(SPECIAL) | arrays(np.float64, array_shapes(min_dims=0, max_dims=2, max_side=3),
                                              elements=st.sampled_from(SPECIAL)),
       v_size=st.integers(0, 5))
def test_star_log_prob(blank, v_size):
    _outcome(lambda: star_log_prob(blank, v_size))


@CONTRACT
@given(z=grids | tensors, toks=tokens, criterion=st.sampled_from(["rnnt", "wst"]), pen=penalties)
def test_brute_force_loss(z, toks, criterion, pen):
    _outcome(lambda: brute_force_loss(z, toks, criterion, pen, max_paths=50))


@SLOW_CONTRACT
@given(vocab=vocabs, toks=tokens, refs=st.lists(tokens, max_size=3), hyps=st.lists(tokens, max_size=3),
       kind=st.sampled_from(["sub", "ins", "del", "mixed"]), rate=st.floats(0, 1), config=json_values)
def test_corruption_scoring_and_config(vocab, toks, refs, hyps, kind, rate, config):
    _outcome(lambda: corrupt(vocab, toks, CorruptionSpec(kind, rate, 3)))
    _outcome(lambda: score_corpus([toks], hyps[:1] or [[]]))
    _outcome(lambda: score_corpus(refs, hyps))
    _outcome(lambda: config_from_dict(config))


state_id = st.one_of(st.integers(0, 4), st.sampled_from(["0", 1.5, None, True]))
arc_weight = st.one_of(st.sampled_from(SPECIAL), st.floats(-4, 4), st.sampled_from(["a", None, True]))


@st.composite
def hand_built_arcs(draw):
    """Arcs of a small DAG on states 0..4 (src < dst), now and then with a mistyped id or weight."""
    pairs = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(1, 4)).filter(lambda p: p[0] < p[1]),
                          max_size=8))
    arcs = [Arc(s, d, 1, 1, draw(arc_weight)) for s, d in pairs]
    if arcs and draw(st.booleans()):
        i = draw(st.integers(0, len(arcs) - 1))
        arcs[i] = Arc(draw(state_id), draw(state_id), 1, 1, arcs[i].weight)
    return arcs


@CONTRACT
@given(arcs=hand_built_arcs(), num_states=st.sampled_from([5, 5, 5, "5", 3]))
def test_hand_built_graphs(arcs, num_states):
    kind, g = _outcome(lambda: Wfst(num_states, 0, 4 if num_states == 5 else 1, arcs))
    if kind == "ok":
        _outcome(lambda: topo_sort(g))
        _outcome(lambda: total_weight(g))
        _outcome(lambda: arc_posteriors(g))
        _outcome(lambda: export_dot(g))
        assert wfst_from_json(export_json(g)) == g


positive_lambdas = st.one_of(st.sampled_from([0.0, 1.0, 700.0, 1e300, 1e308]), st.floats(0, 1e308))


@CONTRACT
@given(data=st.data(), v_size=st.integers(2, 4), t_len=st.integers(1, 3),
       lambdas=st.tuples(positive_lambdas, positive_lambdas))
def test_brute_force_loss_with_positive_penalties(data, v_size, t_len, lambdas):
    toks = data.draw(st.lists(st.integers(1, v_size - 1), max_size=2))
    z = data.draw(arrays(np.float64, (t_len, len(toks) + 1, v_size), elements=st.floats(-8, 8)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # positive penalties warn
        penalties = PenaltyConfig(*lambdas)
    _outcome(lambda: brute_force_loss(z, toks, "wst", penalties, max_paths=500))


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


# config objects that each fail validation; the first six passed it once and then failed in training or
# seeding, the next to last raised a TypeError, and the last trained and then scored an empty eval set
BAD_CONFIGS = [{"learning_rate": math.nan}, {"learning_rate": math.inf}, {"task": {"feature_noise": math.nan}},
               {"task": {"eval_size": -3}}, {"task": {"seed": -1}},
               {"corruption": {"kind": "sub", "rate": 0.5, "seed": -1}}, {"learning_rate": 0}, {"epochs": 0},
               {"momentum": 0.9}, {"criterion": "ctc"}, {"task": [1]}, {"penalties": {"lambda1": "a", "lambda2": 0}},
               {"corruption": {"kind": "sub"}}, {"task": {"eval_size": 0}}]
CONFIG_KEYS = ["task", "corruption", "criterion", "penalties", "hidden", "learning_rate", "epochs", "batch_size",
               "max_symbols_per_frame"]
DONE_ROWS = "".join(json.dumps({"criterion": c, "kind": "sub", "rate": 0.0}) + "\n" for c in ("rnnt", "wst"))


def _run_cli(argv):
    """(exit status, standard error) of ``cli.main``; argparse's exit is a status too."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            status = cli.main(argv)
        except SystemExit as exc:
            status = exc.code
    return status, err.getvalue()


@SLOW_CONTRACT
@given(config=st.builds(lambda extra, bad: {**extra, **bad},
                        st.dictionaries(st.sampled_from(CONFIG_KEYS), json_values, max_size=2),
                        st.sampled_from(BAD_CONFIGS)),
       resume=raw_files | st.lists(json_values | st.fixed_dictionaries(
           {"criterion": json_values, "kind": json_values, "rate": json_values}), max_size=3),
       rates=st.sampled_from(["0", "0,0", "x", "nan", "-1"]))
def test_cli_rejects_bad_configs_and_resume_files(tmp_path_factory, config, resume, rates):
    """Exit 1 with one ``error:`` line, or 2 from argparse, and never a traceback.

    The resume file always holds the one cell of the grid, so a sweep that
    gets past its checks exits 0 without training.
    """
    tmp = tmp_path_factory.mktemp("cli")
    (tmp / "config.json").write_text(json.dumps(config))
    (tmp / "done.jsonl").write_bytes(DONE_ROWS.encode() + (resume if isinstance(resume, bytes) else
                                                           "".join(json.dumps(r) + "\n" for r in resume).encode()))
    grid = ["--rates", rates, "--kinds", "sub"]
    runs = [
        (["train", "--config", str(tmp / "config.json")], (1,)),
        (["sweep", "--config", str(tmp / "config.json"), "--output", str(tmp / "out.jsonl"), *grid], (1,)),
        (["sweep", "--resume", "--output", str(tmp / "done.jsonl"), *grid], (0, 1)),
        (["sweep", "--resume", *grid], (2,)),
    ]
    for argv, statuses in runs:
        status, err = _run_cli(argv)
        assert status in statuses and "Traceback" not in err, (argv, status, err)
        if status == 1:
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), (argv, err)


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
