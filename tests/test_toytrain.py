import dataclasses
import json

import numpy as np
import pytest

from wst.corruption import CorruptionSpec
from wst import toytrain
from wst.exceptions import Divergence, NoPath, ShapeMismatch, VocabError
from wst.graphs import PenaltyConfig, build_ws_transcript_graph
from wst.loss import batched_grid_loss, rnnt_loss
from wst.numerics import NEG_INF
from wst.toytrain import (
    ExperimentConfig,
    ToyTask,
    _backward_batch,
    _forward_batch,
    config_from_dict,
    config_to_dict,
    evaluate,
    forward,
    generate_task_data,
    greedy_decode,
    init_params,
    run_experiment,
    train,
)
from wst.vocab import Vocab
from wst.wfst import export_json

SMALL_TASK = ToyTask(vocab_size=5, train_size=12, eval_size=6, min_len=2, max_len=4, seed=3)


def small_config(**kw):
    defaults = dict(task=SMALL_TASK, epochs=2, batch_size=4, hidden=8)
    defaults.update(kw)
    return ExperimentConfig(**defaults)


class TestTaskData:
    def test_shapes_and_ranges(self):
        train_set, eval_set = generate_task_data(SMALL_TASK)
        assert len(train_set) == 12
        assert len(eval_set) == 6
        for feats, toks in train_set + eval_set:
            assert SMALL_TASK.min_len <= len(toks) <= SMALL_TASK.max_len
            assert feats.shape == (len(toks) * SMALL_TASK.frames_per_token,
                                   SMALL_TASK.feature_dim)
            assert all(1 <= t < SMALL_TASK.vocab_size for t in toks)

    def test_deterministic(self):
        a = generate_task_data(SMALL_TASK)
        b = generate_task_data(SMALL_TASK)
        for sa, sb in zip(a, b):
            for (fa, ta), (fb, tb) in zip(sa, sb):
                assert ta == tb
                assert np.array_equal(fa, fb)

    def test_seed_changes_data(self):
        other = dataclasses.replace(SMALL_TASK, seed=4)
        ta = [t for _, t in generate_task_data(SMALL_TASK)[0]]
        tb = [t for _, t in generate_task_data(other)[0]]
        assert ta != tb

    def test_noise_free_features_are_one_hot(self):
        task = dataclasses.replace(SMALL_TASK, feature_noise=0.0)
        feats, toks = generate_task_data(task)[0][0]
        for u, tok in enumerate(toks):
            for k in range(task.frames_per_token):
                row = feats[u * task.frames_per_token + k]
                assert row[tok - 1] == 1.0
                assert row.sum() == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ToyTask(frames_per_token=0)
        with pytest.raises(ValueError):
            ToyTask(feature_noise=-1.0)

    @pytest.mark.parametrize("make", [
        lambda: ToyTask(min_len=5, max_len=2),
        lambda: ToyTask(min_len=0),
        lambda: ToyTask(vocab_size=1),
        lambda: ToyTask(train_size=0),
        lambda: ExperimentConfig(batch_size=0),
        lambda: ExperimentConfig(hidden=0),
        lambda: ExperimentConfig(max_symbols_per_frame=0),
    ], ids=["max_len<min_len", "min_len=0", "vocab_size=1", "train_size=0", "batch_size=0",
            "hidden=0", "max_symbols_per_frame=0"])
    def test_rejected_at_construction(self, make):
        with pytest.raises(ValueError):
            make()

    @pytest.mark.parametrize("field,make", [
        ("vocab_size", lambda: ToyTask(vocab_size=2.5)),
        ("min_len", lambda: ToyTask(min_len=True)),
        ("seed", lambda: ToyTask(seed="0")),
        ("feature_noise", lambda: ToyTask(feature_noise="0.2")),
        ("feature_noise", lambda: ToyTask(feature_noise=False)),
        ("hidden", lambda: ExperimentConfig(hidden="a")),
        ("hidden", lambda: ExperimentConfig(hidden=32.0)),
        ("epochs", lambda: ExperimentConfig(epochs=True)),
        ("batch_size", lambda: ExperimentConfig(batch_size=np.True_)),
        ("learning_rate", lambda: ExperimentConfig(learning_rate="x")),
        ("criterion", lambda: ExperimentConfig(criterion=1)),
        ("task", lambda: ExperimentConfig(task={"vocab_size": 5})),
        ("penalties", lambda: ExperimentConfig(penalties=None)),
        pytest.param("rate", lambda: CorruptionSpec("sub", "x"), id="spec-rate-str"),
        pytest.param("seed", lambda: CorruptionSpec("sub", 0.1, "a"), id="spec-seed-str"),
        pytest.param("rate", lambda: CorruptionSpec("sub", True, 1.5), id="spec-rate-bool"),
        pytest.param("lambda1", lambda: PenaltyConfig("a", 0), id="penalty-lambda1-str"),
        pytest.param("lambda1", lambda: PenaltyConfig(True, 0), id="penalty-lambda1-bool"),
        pytest.param("size", lambda: Vocab(2.5), id="vocab-size-float"),
        pytest.param("size", lambda: Vocab("5"), id="vocab-size-str"),
    ])
    def test_wrong_type_named(self, field, make):
        with pytest.raises(ValueError, match=f"^{field} must be of type"):
            make()

    @pytest.mark.parametrize("field,make", [
        ("learning_rate", lambda: ExperimentConfig(learning_rate=float("nan"))),
        ("learning_rate", lambda: ExperimentConfig(learning_rate=float("inf"))),
        ("feature_noise", lambda: ToyTask(feature_noise=float("nan"))),
        ("feature_noise", lambda: ToyTask(feature_noise=float("inf"))),
        ("eval_size", lambda: ToyTask(eval_size=-3)),
        ("seed", lambda: ToyTask(seed=-1)),
        ("seed", lambda: CorruptionSpec("sub", 0.5, -1)),
    ], ids=["learning_rate-nan", "learning_rate-inf", "feature_noise-nan", "feature_noise-inf",
            "eval_size-negative", "task-seed-negative", "spec-seed-negative"])
    def test_out_of_range_named(self, field, make):
        """Values that would fail only later, in training or in numpy's seeding, fail at construction."""
        with pytest.raises(ValueError, match=f"^{field} must be"):
            make()

    def test_integers_accepted_in_any_integer_type(self):
        task = ToyTask(vocab_size=np.int64(5), seed=np.int32(3), feature_noise=np.float32(0.5))
        assert task.feature_dim == 4
        assert ExperimentConfig(learning_rate=1).learning_rate == 1
        assert Vocab(np.int64(5)).star_id == 5
        assert CorruptionSpec("sub", np.float32(0.5), np.int32(3)).seed == 3
        assert PenaltyConfig(-1, np.float64(-0.5)).lambda1 == -1
        # numpy scalars are stored as Python scalars, so configs and graphs serialize
        config = ExperimentConfig(task=task, learning_rate=np.int64(1),
                                  corruption=CorruptionSpec("sub", np.float32(0.5), np.int32(3)),
                                  penalties=PenaltyConfig(-1, np.float64(-0.5)))
        assert [type(v) for v in (task.vocab_size, task.seed, config.learning_rate, task.feature_noise,
                                  config.corruption.rate, config.corruption.seed,
                                  config.penalties.lambda1, config.penalties.lambda2)] == [
            int, int, int, float, float, int, int, float]
        assert json.loads(json.dumps(config_to_dict(config)))["task"]["seed"] == 3
        assert '"label": 5' in export_json(build_ws_transcript_graph(Vocab(np.int64(5)), [1], None))

    def test_smallest_valid_task(self):
        task = ToyTask(vocab_size=2, min_len=1, max_len=1, train_size=1, eval_size=0)
        train_set, eval_set = generate_task_data(task)
        assert [toks for _, toks in train_set] == [[1]] and eval_set == []


class TestForward:
    def test_logit_shape(self):
        params = init_params(SMALL_TASK, 8, 0)
        feats, toks = generate_task_data(SMALL_TASK)[0][0]
        z = forward(params, feats, toks)
        assert z.shape == (feats.shape[0], len(toks) + 1, SMALL_TASK.vocab_size)
        z = forward(params, np.zeros((0, SMALL_TASK.feature_dim)), toks)
        assert z.shape == (0, len(toks) + 1, SMALL_TASK.vocab_size)

    def test_feature_dim_mismatch(self):
        params = init_params(SMALL_TASK, 8, 0)
        bad = np.zeros((4, SMALL_TASK.feature_dim + 1))
        with pytest.raises(ShapeMismatch):
            forward(params, bad, [1, 2])
        with pytest.raises(ShapeMismatch):
            greedy_decode(params, bad)
        with pytest.raises(ShapeMismatch):
            greedy_decode(params, np.zeros(SMALL_TASK.feature_dim))

    @pytest.mark.parametrize("tokens", [[99], [0], [1, SMALL_TASK.vocab_size], [1.5], [True]])
    def test_transcript_outside_vocabulary(self, tokens):
        # out of range, blank, star, a fraction and a bool are all VocabErrors, not IndexErrors
        params = init_params(SMALL_TASK, 8, 0)
        with pytest.raises(VocabError):
            forward(params, np.zeros((3, SMALL_TASK.feature_dim)), tokens)

    def test_decode_accepts_nested_lists(self):
        params = init_params(SMALL_TASK, 8, 0)
        feats = np.random.default_rng(3).standard_normal((4, SMALL_TASK.feature_dim))
        assert greedy_decode(params, feats.tolist()) == greedy_decode(params, feats)

    def test_row_u_depends_only_on_previous_token(self):
        params = init_params(SMALL_TASK, 8, 0)
        feats = np.zeros((3, SMALL_TASK.feature_dim))
        z1 = forward(params, feats, [1, 2])
        z2 = forward(params, feats, [1, 3])
        # row 0 (blank ctx) and row 1 (ctx token 1) agree; row 2 differs
        assert np.array_equal(z1[:, 0], z2[:, 0])
        assert np.array_equal(z1[:, 1], z2[:, 1])
        assert not np.array_equal(z1[:, 2], z2[:, 2])

    def test_batch_matches_per_item_forward(self):
        params = init_params(SMALL_TASK, 8, 2)
        rng = np.random.default_rng(4)
        xs = rng.standard_normal((4, 5, SMALL_TASK.feature_dim))
        ys = rng.integers(1, SMALL_TASK.vocab_size, size=(4, 3))
        logits, _, _ = _forward_batch(params, xs, ys, {})
        for x, y, z in zip(xs, ys, logits):
            assert np.abs(z - forward(params, x, y)).max() <= 1e-12

    def test_finite_difference_through_params(self):
        # three items with different token sequences: a reshape that mixes
        # items in the batched backward pass breaks the summed gradient
        params = init_params(SMALL_TASK, 4, 1)
        rng = np.random.default_rng(0)
        xs = rng.standard_normal((3, 2, SMALL_TASK.feature_dim))
        ys = np.asarray([[1, 2], [3, 1], [4, 4]])

        def loss_of(p):
            return sum(rnnt_loss(forward(p, x, y), y)[0] for x, y in zip(xs, ys))

        logits, h, ctx = _forward_batch(params, xs, ys, {})
        _, dlogits = batched_grid_loss(logits, ys)
        grads = _backward_batch(params, xs, ctx, h, dlogits, {})
        h_step = 1e-6
        for arr, g_arr in zip(params.fields(), grads.fields()):
            flat = arr.reshape(-1)
            for k in range(flat.size):
                orig = flat[k]
                flat[k] = orig + h_step
                up = loss_of(params)
                flat[k] = orig - h_step
                down = loss_of(params)
                flat[k] = orig
                fd = (up - down) / (2 * h_step)
                ana = g_arr.reshape(-1)[k]
                denom = max(abs(fd), abs(ana), 1e-6)
                assert abs(fd - ana) / denom <= 1e-4

    def test_pooled_buffers_match_fresh_allocation(self):
        """The train-owned buffers over grow, shrink and grow again give an empty pool's bits."""
        params = init_params(SMALL_TASK, 8, 5)
        rng = np.random.default_rng(6)
        pool = {}
        for b_sz, t_len, u_len in ((2, 3, 2), (4, 6, 3), (1, 2, 1), (3, 4, 0), (5, 7, 4)):
            xs = rng.standard_normal((b_sz, t_len, SMALL_TASK.feature_dim))
            ys = rng.integers(1, SMALL_TASK.vocab_size, size=(b_sz, u_len))
            logits, h, ctx = _forward_batch(params, xs, ys, {})
            p_logits, p_h, p_ctx = _forward_batch(params, xs, ys, pool)
            assert np.shares_memory(p_h, pool["h"])
            assert np.array_equal(p_logits, logits) and np.array_equal(p_h, h)
            _, dlogits = batched_grid_loss(logits, ys)
            grads = _backward_batch(params, xs, ctx, h, dlogits, {})
            p_grads = _backward_batch(params, xs, p_ctx, p_h, dlogits, pool)
            for a, b in zip(grads.fields(), p_grads.fields()):
                assert np.array_equal(a, b)
        assert pool["h"].size == 5 * 7 * 5 * 8 and pool["dpre"].size == 5 * 7 * 5 * 8


class TestTrain:
    def test_loss_curve_decreases(self):
        cfg = small_config(epochs=5)
        _, curve = train(cfg)
        assert len(curve) == 5
        assert curve[-1] < curve[0]

    def test_deterministic(self):
        cfg = small_config()
        p1, c1 = train(cfg)
        p2, c2 = train(cfg)
        assert c1 == c2
        for a, b in zip(p1.fields(), p2.fields()):
            assert np.array_equal(a, b)

    def test_wst_neg_inf_penalties_match_rnnt_exactly(self):
        p_rnnt, c_rnnt = train(small_config(criterion="rnnt"))
        p_wst, c_wst = train(small_config(
            criterion="wst", penalties=PenaltyConfig(NEG_INF, NEG_INF)))
        assert c_rnnt == c_wst
        for a, b in zip(p_rnnt.fields(), p_wst.fields()):
            assert np.array_equal(a, b)

    def test_tiny_learning_rate_barely_moves_params(self):
        init = init_params(SMALL_TASK, 8, SMALL_TASK.seed)
        trained, _ = train(small_config(epochs=1, learning_rate=1e-12))
        for a, b in zip(init.fields(), trained.fields()):
            assert np.allclose(a, b, atol=1e-9)

    def test_learning_rate_zero_rejected(self):
        with pytest.raises(ValueError):
            small_config(learning_rate=0.0)

    def test_unknown_criterion_rejected(self):
        with pytest.raises(ValueError, match="criterion"):
            small_config(criterion="ctc")

    def test_diverging_run_is_divergence(self):
        with pytest.raises(Divergence) as exc:
            train(small_config(learning_rate=1e300))
        # batch 1's occupancies break conservation; unchecked, they overflow at batch 3
        assert (exc.value.epoch, exc.value.batch) == (0, 1)
        assert isinstance(exc.value.__cause__, NoPath)

    def test_non_finite_logits_are_divergence(self):
        """The update overflows the weights, and the next batch's logits are not finite."""
        with pytest.raises(Divergence) as exc:
            train(small_config(learning_rate=1e308))
        assert (exc.value.epoch, exc.value.batch) == (0, 1)
        assert isinstance(exc.value.__cause__, ShapeMismatch)
        assert str(exc.value.__cause__) == "logits must be finite"

    def test_no_path_is_divergence(self, monkeypatch):
        def no_path(*args, **kwargs):
            raise NoPath("lattice of item 0 admits no accepting path")

        monkeypatch.setattr(toytrain, "batched_grid_loss", no_path)
        with pytest.raises(Divergence) as exc:
            train(small_config())
        assert (exc.value.epoch, exc.value.batch) == (0, 0)


def step_by_step_decode(params, features, max_symbols_per_frame):
    """Reference greedy search: one joiner evaluation per emitted or blank step."""
    f = features @ params.encoder.T
    out = []
    ctx = 0
    for t in range(f.shape[0]):
        for _ in range(max_symbols_per_frame):
            h = np.tanh(f[t] + params.decoder_embed[ctx])
            best = int(np.argmax(params.joiner_w @ h + params.joiner_b))
            if best == 0:
                break
            out.append(best)
            ctx = best
    return out


class TestGreedyDecode:
    def test_matches_step_by_step_reference(self):
        rng = np.random.default_rng(6)
        for seed in range(20):
            params = init_params(SMALL_TASK, 8, seed)
            for arr in params.fields():
                arr *= 3.0  # sharper logits, so that contexts emit several tokens
            feats = rng.standard_normal((int(rng.integers(1, 9)), SMALL_TASK.feature_dim))
            for cap in (1, 2, 3):
                assert greedy_decode(params, feats, cap) == step_by_step_decode(params, feats, cap)

    def test_never_emits_blank_or_star(self):
        params = init_params(SMALL_TASK, 8, 0)
        rng = np.random.default_rng(1)
        for _ in range(10):
            feats = rng.standard_normal((6, SMALL_TASK.feature_dim))
            out = greedy_decode(params, feats)
            assert all(1 <= t < SMALL_TASK.vocab_size for t in out)

    def test_length_cap(self):
        params = init_params(SMALL_TASK, 8, 0)
        feats = np.random.default_rng(2).standard_normal((5, SMALL_TASK.feature_dim))
        for cap in (1, 2, 3):
            assert len(greedy_decode(params, feats, cap)) <= 5 * cap

    def test_empty_features(self):
        params = init_params(SMALL_TASK, 8, 0)
        assert greedy_decode(params, np.zeros((0, SMALL_TASK.feature_dim))) == []

    def test_cap_validation(self):
        params = init_params(SMALL_TASK, 8, 0)
        feats = np.zeros((1, SMALL_TASK.feature_dim))
        for cap in (0, -1, 2.5, 1.0, True, "2", None):
            with pytest.raises(ValueError, match="max_symbols_per_frame"):
                greedy_decode(params, feats, cap)
        assert greedy_decode(params, feats, np.int64(2)) == greedy_decode(params, feats, 2)


class TestEvaluate:
    def test_perfect_model_zero_wer(self):
        # decode the eval set with a trained model and score against itself
        params = init_params(SMALL_TASK, 8, 0)
        _, eval_set = generate_task_data(SMALL_TASK)
        hyps = [(f, greedy_decode(params, f)) for f, _ in eval_set]
        scored = [(f, h) for (f, _), (_, h) in zip(eval_set, hyps)]
        assert evaluate(params, scored, 4)["error_rate"] == 0.0

    def test_trained_beats_untrained(self):
        cfg = small_config(epochs=8, task=dataclasses.replace(SMALL_TASK, train_size=60))
        trained, _ = train(cfg)
        init = init_params(cfg.task, cfg.hidden, cfg.task.seed)
        _, eval_set = generate_task_data(cfg.task)
        assert evaluate(trained, eval_set, 1)["error_rate"] < evaluate(init, eval_set, 1)["error_rate"]


class TestRunExperiment:
    def test_report_contents_and_determinism(self):
        cfg = small_config()
        r1 = run_experiment(cfg)
        r2 = run_experiment(cfg)
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)
        assert r1["criterion"] == "rnnt"
        assert len(r1["epochs"]) == cfg.epochs
        assert r1["eval_wer"] >= 0.0
        assert r1["realized_error_rate"] == 0.0  # default corruption rate 0

    def test_eval_errors_by_kind_sum_to_wer(self):
        r = run_experiment(small_config(criterion="wst", corruption=CorruptionSpec("mixed", 0.5, 2)))
        assert sorted(r) == ["config", "criterion", "epochs", "eval_del_rate", "eval_ins_rate",
                             "eval_sub_rate", "eval_wer", "realized_error_rate"]
        assert r["eval_wer"] > 0.0
        assert abs(r["eval_sub_rate"] + r["eval_ins_rate"] + r["eval_del_rate"] - r["eval_wer"]) <= 1e-12

    def test_larger_run_between_leaves_report_unchanged(self):
        """Training keeps no state between calls: a larger task in between changes no byte."""
        cfg = small_config(criterion="wst", corruption=CorruptionSpec("mixed", 0.5, 2))
        first = json.dumps(run_experiment(cfg), sort_keys=True)
        run_experiment(small_config(task=dataclasses.replace(SMALL_TASK, max_len=7, train_size=20),
                                    batch_size=8, hidden=12))
        assert json.dumps(run_experiment(cfg), sort_keys=True) == first

    def test_realized_rate_reported(self):
        cfg = small_config(corruption=CorruptionSpec("del", 0.5, 1))
        r = run_experiment(cfg)
        assert 0.2 <= r["realized_error_rate"] <= 0.8


class TestConfigRoundTrip:
    def test_json_round_trip(self):
        # json writes -inf as -Infinity and reads it back as a float
        for penalties in (PenaltyConfig(-0.3, -0.7), PenaltyConfig(NEG_INF, NEG_INF)):
            cfg = small_config(criterion="wst", penalties=penalties,
                               corruption=CorruptionSpec("ins", 0.3, 9))
            d = json.loads(json.dumps(config_to_dict(cfg)))
            assert config_from_dict(d) == cfg

    def test_momentum_is_an_unknown_key(self):
        with pytest.raises(ValueError, match="^unknown key 'momentum' in config$"):
            config_from_dict({"momentum": 0.0})

    @pytest.mark.parametrize("d, key", [({"corruption": {}}, "kind"), ({"corruption": {"kind": "sub"}}, "rate")])
    def test_missing_required_key_named(self, d, key):
        with pytest.raises(ValueError, match=f"^corruption needs key '{key}'$"):
            config_from_dict(d)

    def test_defaults_round_trip(self):
        cfg = ExperimentConfig()
        assert config_from_dict(config_to_dict(cfg)) == cfg

    @pytest.mark.parametrize("d", [
        {"bogus": 1},
        {"task": {"bogus": 1}},
        {"corruption": {"kind": "sub", "rate": 0.1, "bogus": 1}},
        {"penalties": {"lambda1": 0.0, "bogus": 1}},
    ])
    def test_unknown_key_named(self, d):
        with pytest.raises(ValueError, match="'bogus'"):
            config_from_dict(d)

    def test_section_must_be_object(self):
        with pytest.raises(ValueError, match="task"):
            config_from_dict({"task": 5})
