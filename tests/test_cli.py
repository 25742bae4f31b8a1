import json
import math
import warnings

import numpy as np
import pytest

from wst.cli import main
from wst.graphs import LN_HALF, PenaltyConfig, build_rnnt_lattice
from wst.loss import batched_grid_loss, log_softmax
from wst.vocab import Vocab
from wst.wfst import EPSILON, export_json, total_weight, wfst_from_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_tensor(path, t, u, v, data, kind="logits"):
    path.write_text(json.dumps({"T": t, "U": u, "V": v, "kind": kind, "data": data}))


def write_jsonl(path, rows):
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))


class TestGraph:
    def test_rnnt_json_counts(self, capsys):
        code, out, _ = run(capsys, "graph", "--type", "rnnt", "--tokens", "1,2,3",
                           "--vocab-size", "4", "--frames", "4")
        assert code == 0
        g = json.loads(out)
        assert g["num_states"] == 18
        assert len(g["arcs"]) == 26

    def test_wst_json_counts(self, capsys):
        code, out, _ = run(capsys, "graph", "--type", "wst", "--tokens", "1,2,3",
                           "--vocab-size", "4", "--frames", "4")
        assert code == 0
        assert len(json.loads(out)["arcs"]) == 50

    def test_ws_transcript_dot(self, capsys):
        code, out, _ = run(capsys, "graph", "--type", "ws-transcript", "--tokens", "1",
                           "--vocab-size", "3", "--out", "dot")
        assert code == 0
        assert "digraph" in out
        assert "star" in out

    def test_empty_tokens(self, capsys):
        code, out, _ = run(capsys, "graph", "--type", "transcript", "--tokens", "",
                           "--vocab-size", "3")
        assert code == 0
        assert json.loads(out)["num_states"] == 2

    def test_missing_frames_is_domain_error(self, capsys):
        code, _, err = run(capsys, "graph", "--type", "rnnt", "--tokens", "1",
                           "--vocab-size", "3")
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize("frames", ["0", "-1"])
    def test_frames_below_one_names_the_flag(self, capsys, frames):
        code, out, err = run(capsys, "graph", "--type", "wst", "--tokens", "1",
                             "--vocab-size", "3", "--frames", frames)
        assert code == 1
        assert out == ""
        assert "--frames" in err

    @pytest.mark.parametrize("size", ["0", "1"])
    def test_vocab_size_below_two_is_domain_error(self, capsys, size):
        code, out, err = run(capsys, "graph", "--type", "transcript", "--tokens", "1",
                             "--vocab-size", size)
        assert code == 1
        assert out == ""
        assert "error:" in err

    def test_vocab_size_defaults_to_tensor_v(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        write_tensor(path, 2, 1, 5, [0.0] * 20)
        code, out, _ = run(capsys, "graph", "--type", "wst", "--tokens", "1", "--tensor", str(path))
        assert code == 0
        assert {a["label"] for a in json.loads(out)["arcs"]} == {EPSILON, 0, 1, 5}  # star id is |V| = 5

    def test_lattice_dot_bytes(self, capsys):
        # per cell: token, token bypass (lambda1), blank, blank bypass (lambda2); the final blank has no twin
        code, out, _ = run(capsys, "graph", "--type", "wst", "--tokens", "1,2", "--vocab-size", "3",
                           "--frames", "2", "--lambda1=-0.5", "--lambda2=-2", "--out", "dot")
        assert code == 0
        assert out == """digraph wfst {
  rankdir=LR;
  node [shape=circle];
  7 [shape=doublecircle];
  0 -> 1 [label="1:1/-1.09861"];
  0 -> 1 [label="star:star/-1.59861"];
  0 -> 3 [label="blk:eps/-1.09861"];
  0 -> 3 [label="star:star/-3.09861"];
  1 -> 2 [label="2:2/-1.09861"];
  1 -> 2 [label="star:star/-1.59861"];
  1 -> 4 [label="blk:eps/-1.09861"];
  1 -> 4 [label="star:star/-3.09861"];
  2 -> 5 [label="blk:eps/-1.09861"];
  2 -> 5 [label="star:star/-3.09861"];
  3 -> 4 [label="1:1/-1.09861"];
  3 -> 4 [label="star:star/-1.59861"];
  4 -> 5 [label="2:2/-1.09861"];
  4 -> 5 [label="star:star/-1.59861"];
  5 -> 6 [label="blk:eps/-1.09861"];
  6 -> 7 [label="eps:eps/0"];
}
"""


class TestLoss:
    def test_rnnt_worked_example(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        write_tensor(path, 2, 1, 3, [0.0] * 12)
        code, out, _ = run(capsys, "loss", "--criterion", "rnnt",
                           "--tensor", str(path), "--tokens", "1")
        assert code == 0
        assert json.loads(out)["loss"] == pytest.approx(-math.log(2 / 27), abs=1e-9)

    def test_wst_worked_example_with_oracle(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        write_tensor(path, 2, 1, 3, [0.0] * 12)
        code, out, _ = run(capsys, "loss", "--criterion", "wst",
                           "--tensor", str(path), "--tokens", "1",
                           "--lambda1=0.0", "--lambda2=0.0", "--oracle")
        assert code == 0
        rep = json.loads(out)
        assert rep["loss"] == pytest.approx(-math.log(8 / 27), abs=1e-9)
        assert rep["oracle_discrepancy"] <= 1e-10

    def test_neg_inf_lambdas_reduce_to_rnnt(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        write_tensor(path, 2, 1, 3, [0.3, -0.1, 0.7, 0.0, 0.2, -0.4,
                                     0.1, 0.5, -0.2, 0.6, -0.3, 0.4])
        _, out_r, _ = run(capsys, "loss", "--criterion", "rnnt",
                          "--tensor", str(path), "--tokens", "1", "--grad")
        _, out_w, _ = run(capsys, "loss", "--criterion", "wst",
                          "--tensor", str(path), "--tokens", "1", "--grad",
                          "--lambda1=-inf", "--lambda2=-inf")
        r, w = json.loads(out_r), json.loads(out_w)
        assert r["loss"] == w["loss"]
        assert r["grad"] == w["grad"]

    def test_grad_included_only_on_request(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        write_tensor(path, 1, 0, 2, [0.0, 0.0])
        _, out, _ = run(capsys, "loss", "--criterion", "rnnt",
                        "--tensor", str(path), "--tokens", "")
        assert "grad" not in json.loads(out)

    def test_bad_tensor_size(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        write_tensor(path, 2, 1, 3, [0.0] * 5)
        code, _, err = run(capsys, "loss", "--criterion", "rnnt",
                           "--tensor", str(path), "--tokens", "1")
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize("content", [
        [1, 2, 3],
        {"T": None, "U": 0, "V": 2, "data": [0.0, 0.0]},
        {"T": 1e400, "U": 0, "V": 2, "data": [0.0, 0.0]},
        {"T": 1, "U": 0, "V": 2, "data": {"a": 1}},
        {"U": 0, "V": 2, "data": [0.0, 0.0]},
        {"T": -1, "U": 0, "V": -1, "data": [0.5]},
        {"T": 2, "U": 0, "V": 2, "kind": "logprobs", "data": [0, -math.inf, 0, -math.inf]},
        {"T": 2, "U": 0, "V": 2, "kind": "logits", "data": [0, -math.inf, 0, -math.inf]},
        {"T": 2, "U": 0, "V": 2, "kind": "logprobs", "data": [-0.1, -0.2, -0.3, -0.4]},
        {"T": True, "U": 0, "V": 2, "data": [0.0, 0.0]},
        {"T": 1.5, "U": 0, "V": 2, "data": [0.0, 0.0]},
        {"T": "1", "U": 0, "V": 2, "data": [0.0, 0.0]},
        {"T": 1, "U": 0, "V": 2, "data": ["0.5", "0"]},
        {"T": 1, "U": 0, "V": 2, "data": [True, False]},
        {"T": 1, "U": 0, "V": 2, "data": [[0.5], [0]]},
        {"T": 1, "U": 0, "V": 2, "kind": "probs", "data": [0.0, 0.0]},
    ], ids=["list", "null T", "infinite T", "object data", "no T", "negative T and V",
            "non-finite logprobs", "non-finite logits", "unnormalised logprobs",
            "bool T", "fractional T", "string T", "string data", "bool data", "nested data",
            "unknown kind"])
    def test_malformed_tensor_file(self, capsys, tmp_path, content):
        path = tmp_path / "t.json"
        path.write_text(json.dumps(content))
        for argv in (("loss", "--criterion", "rnnt"), ("graph", "--type", "rnnt", "--vocab-size", "2")):
            code, _, err = run(capsys, *argv, "--tensor", str(path), "--tokens", "")
            assert code == 1
            assert f"tensor file {path}" in err


class TestLogprobTensorFile:
    """A "kind": "logprobs" file is read as log-probabilities by both commands."""

    DATA = log_softmax(-0.1 * np.arange(1, 19).reshape(6, 3)).reshape(-1).tolist()  # T=2, U=2, V=3

    @pytest.mark.parametrize("criterion", ["rnnt", "wst"])
    def test_loss_grad_matches_library(self, capsys, tmp_path, criterion):
        path = tmp_path / "t.json"
        write_tensor(path, 2, 2, 3, self.DATA, kind="logprobs")
        code, out, _ = run(capsys, "loss", "--criterion", criterion,
                           "--tensor", str(path), "--tokens", "1,2", "--grad")
        assert code == 0
        tensor = np.array(self.DATA).reshape(2, 3, 3)
        penalties = PenaltyConfig(LN_HALF, LN_HALF) if criterion == "wst" else None
        losses, grads = batched_grid_loss(tensor[None], [[1, 2]], criterion, penalties, "logprobs")
        rep = json.loads(out)
        assert rep["loss"] == float(losses[0])
        assert np.array_equal(np.array(rep["grad"]), grads[0].reshape(-1))

    def test_graph_weights_are_the_file_values(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        write_tensor(path, 2, 2, 3, self.DATA, kind="logprobs")
        code, out, _ = run(capsys, "graph", "--type", "rnnt", "--tensor", str(path),
                           "--tokens", "1,2", "--vocab-size", "3")
        assert code == 0
        arcs = [arc for arc in json.loads(out)["arcs"] if arc["label"] != EPSILON]
        assert len(arcs) == 8
        for arc in arcs:  # the file's value at (frame, position, label), not re-normalised
            assert arc["weight"] == self.DATA[(arc["frame"] * 3 + arc["position"]) * 3 + arc["label"]]
        tensor = np.array(self.DATA).reshape(2, 3, 3)
        expected = build_rnnt_lattice(Vocab(3), [1, 2], tensor)
        assert out == export_json(expected) + "\n"

    @pytest.mark.parametrize("criterion", ["rnnt", "wst"])
    def test_loss_is_minus_the_graph_total_weight(self, capsys, tmp_path, criterion):
        path = tmp_path / "t.json"
        write_tensor(path, 2, 2, 3, self.DATA, kind="logprobs")
        code_l, out_l, _ = run(capsys, "loss", "--criterion", criterion, "--tensor", str(path), "--tokens", "1,2")
        code_g, out_g, _ = run(capsys, "graph", "--type", criterion, "--tensor", str(path),
                               "--tokens", "1,2", "--vocab-size", "3")
        assert code_l == code_g == 0
        assert abs(json.loads(out_l)["loss"] + total_weight(wfst_from_json(out_g))) <= 1e-12


class TestPenaltyWarnings:
    """Positive penalties warn only where a command uses them."""

    def user_warnings(self, capsys, tmp_path, *argv):
        path = tmp_path / "t.json"
        write_tensor(path, 2, 1, 3, [0.0] * 12)
        argv = [str(path) if a == "TENSOR" else a for a in argv]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, _ = run(capsys, *argv, "--lambda1=0.5")
        assert code == 0
        return [w for w in caught if issubclass(w.category, UserWarning)]

    @pytest.mark.parametrize("argv", [
        ("graph", "--type", "rnnt", "--tokens", "1", "--frames", "2"),
        ("graph", "--type", "transcript", "--tokens", "1"),
        ("loss", "--criterion", "rnnt", "--tensor", "TENSOR", "--tokens", "1", "--oracle"),
    ])
    def test_unused_penalties_do_not_warn(self, capsys, tmp_path, argv):
        assert self.user_warnings(capsys, tmp_path, *argv) == []

    @pytest.mark.parametrize("argv", [
        ("graph", "--type", "wst", "--tokens", "1", "--frames", "2"),
        ("graph", "--type", "ws-transcript", "--tokens", "1"),
        ("loss", "--criterion", "wst", "--tensor", "TENSOR", "--tokens", "1"),
    ])
    def test_used_penalties_warn(self, capsys, tmp_path, argv):
        caught = self.user_warnings(capsys, tmp_path, *argv)
        assert any("lambda1=0.5" in str(w.message) for w in caught)


class TestCorruptAndScore:
    def test_round_trip_and_determinism(self, capsys, tmp_path):
        ref = tmp_path / "ref.jsonl"
        write_jsonl(ref, [{"id": i, "tokens": [1, 2, 3, 4]} for i in range(20)])
        outs = []
        for name in ("a.jsonl", "b.jsonl"):
            hyp = tmp_path / name
            code, _, _ = run(capsys, "corrupt", "--input", str(ref),
                             "--output", str(hyp), "--vocab-size", "5",
                             "--kind", "sub", "--rate", "0.5", "--seed", "3")
            assert code == 0
            outs.append(hyp.read_bytes())
        assert outs[0] == outs[1]  # byte-identical reruns

        code, out, _ = run(capsys, "score", "--ref", str(ref), "--hyp", str(tmp_path / "a.jsonl"))
        assert code == 0
        rep = json.loads(out)
        assert rep["ref_tokens"] == 80
        assert 0.0 < rep["wer"] <= 1.0
        assert rep["wer"] == pytest.approx((rep["sub"] + rep["ins"] + rep["del"]) / 80)

    def test_rate_zero_scores_zero(self, capsys, tmp_path):
        ref = tmp_path / "ref.jsonl"
        write_jsonl(ref, [{"id": 0, "tokens": [1, 2]}])
        hyp = tmp_path / "hyp.jsonl"
        run(capsys, "corrupt", "--input", str(ref), "--output", str(hyp),
            "--vocab-size", "3", "--kind", "del", "--rate", "0.0")
        code, out, _ = run(capsys, "score", "--ref", str(ref), "--hyp", str(hyp))
        assert code == 0
        assert json.loads(out)["wer"] == 0.0

    def test_score_missing_hyp_id(self, capsys, tmp_path):
        ref = tmp_path / "ref.jsonl"
        hyp = tmp_path / "hyp.jsonl"
        write_jsonl(ref, [{"id": 0, "tokens": [1]}, {"id": 1, "tokens": [2]}])
        write_jsonl(hyp, [{"id": 0, "tokens": [1]}])
        code, _, err = run(capsys, "score", "--ref", str(ref), "--hyp", str(hyp))
        assert code == 1
        assert "missing" in err

    def test_score_all_empty_reference(self, capsys, tmp_path):
        ref = tmp_path / "ref.jsonl"
        hyp = tmp_path / "hyp.jsonl"
        write_jsonl(ref, [{"id": 0, "tokens": []}, {"id": 1, "tokens": []}])
        write_jsonl(hyp, [{"id": 0, "tokens": [1]}, {"id": 1, "tokens": []}])
        code, out, err = run(capsys, "score", "--ref", str(ref), "--hyp", str(hyp))
        assert code == 1 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and "no tokens" in lines[0]

    @pytest.mark.parametrize("row", [
        [0, [1, 2]],
        {"id": 0, "tokens": None},
        {"id": 0, "tokens": "ab"},
        {"id": 0, "tokens": [1, 2.0]},
        {"id": 0, "tokens": [1, True]},
        {"id": [0], "tokens": [1]},
        {"id": True, "tokens": [1]},
        {"tokens": [1]},
    ], ids=["list row", "null tokens", "string tokens", "float token", "bool token", "list id", "bool id", "no id"])
    def test_malformed_rows(self, capsys, tmp_path, row):
        good = tmp_path / "good.jsonl"
        bad = tmp_path / "bad.jsonl"
        write_jsonl(good, [{"id": 0, "tokens": [1, 2, 1]}])
        write_jsonl(bad, [row])
        for argv in (("score", "--ref", str(good), "--hyp", str(bad)),
                     ("score", "--ref", str(bad), "--hyp", str(good)),
                     ("corrupt", "--input", str(bad), "--vocab-size", "3", "--kind", "sub", "--rate", "0.5")):
            code, _, err = run(capsys, *argv)
            assert code == 1
            assert str(bad) in err


    def test_score_duplicate_id(self, capsys, tmp_path):
        dup = tmp_path / "dup.jsonl"
        one = tmp_path / "one.jsonl"
        write_jsonl(dup, [{"id": 1, "tokens": [1, 2]}, {"id": 1, "tokens": [3]}])
        write_jsonl(one, [{"id": 1, "tokens": [3]}])
        for argv in (("--ref", str(dup), "--hyp", str(one)), ("--ref", str(one), "--hyp", str(dup))):
            code, out, err = run(capsys, "score", *argv)
            assert code == 1
            assert out == ""
            assert str(dup) in err


class TestTrainAndSweep:
    SMALL = {
        "task": {"vocab_size": 5, "train_size": 12, "eval_size": 6,
                 "min_len": 2, "max_len": 3, "seed": 1,
                 "frames_per_token": 2, "feature_noise": 0.2},
        "corruption": {"kind": "sub", "rate": 0.0, "seed": 0},
        "criterion": "rnnt",
        "penalties": {"lambda1": 0.0, "lambda2": 0.0},
        "hidden": 8, "learning_rate": 0.1, "epochs": 2, "batch_size": 4,
        "max_symbols_per_frame": 1,
    }

    def test_train_deterministic_byte_identical(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(self.SMALL))
        reports = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            code, _, _ = run(capsys, "train", "--config", str(cfg), "--output", str(out))
            assert code == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]
        rep = json.loads(reports[0])
        assert len(rep["epochs"]) == 2

    def test_sweep_writes_cells_and_resumes(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(self.SMALL))
        out = tmp_path / "sweep.jsonl"
        code, _, _ = run(capsys, "sweep", "--output", str(out), "--config", str(cfg),
                         "--rates", "0.0,0.5", "--kinds", "del")
        assert code == 0
        rows = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(rows) == 4  # 2 rates x 2 criteria
        assert {(r["criterion"], r["rate"]) for r in rows} == {
            ("rnnt", 0.0), ("rnnt", 0.5), ("wst", 0.0), ("wst", 0.5)}
        for r in rows:
            assert abs(r["eval_sub_rate"] + r["eval_ins_rate"] + r["eval_del_rate"] - r["eval_wer"]) <= 1e-12
        before = out.read_bytes()
        code, _, err = run(capsys, "sweep", "--output", str(out), "--config", str(cfg),
                           "--rates", "0.0,0.5", "--kinds", "del", "--resume")
        assert code == 0
        assert out.read_bytes() == before  # everything already done
        assert "cell" not in err

    @pytest.mark.parametrize("grid, named", [
        (("--kinds", "sub,bogus", "--rates", "0.0"), "'bogus'"),
        (("--kinds", "sub", "--rates", "0.1,1.5"), "1.5"),
        (("--kinds", "sub", "--rates", ""), "''"),
        (("--kinds", "", "--rates", "0.0"), "''"),
        (("--kinds", "sub", "--rates", "0.1,0.10"), "--rates repeats 0.1"),
        (("--kinds", "sub,del,sub", "--rates", "0.0"), "--kinds repeats 'sub'"),
    ], ids=["kind_after_good", "rate_above_1", "empty_rates", "empty_kinds", "repeated_rate",
            "repeated_kind"])
    def test_sweep_checks_grid_before_any_cell(self, capsys, tmp_path, grid, named):
        config = json.loads(json.dumps(self.SMALL))
        config["task"]["train_size"] = 8
        config["epochs"] = 1
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "sweep.jsonl"
        out.write_text('{"earlier": "row"}\n')
        before = out.read_bytes()
        code, _, err = run(capsys, "sweep", "--output", str(out), "--config", str(cfg), *grid)
        assert code == 1
        assert "error:" in err and named in err and "cell" not in err
        assert out.read_bytes() == before

    @pytest.mark.parametrize("row", [
        [1, 2],
        {"criterion": "rnnt", "kind": "sub", "rate": [0.1]},
        {"kind": "sub", "rate": 0.1},
    ], ids=["list_row", "list_rate", "no_criterion"])
    def test_sweep_resume_rejects_malformed_rows(self, capsys, tmp_path, row):
        out = tmp_path / "sweep.jsonl"
        write_jsonl(out, [{"criterion": "rnnt", "kind": "sub", "rate": 0.0}, row])
        before = out.read_bytes()
        code, _, err = run(capsys, "sweep", "--output", str(out), "--kinds", "sub", "--rates", "0.0",
                           "--resume")
        assert code == 1
        assert err.count("error:") == 1 and str(out) in err
        assert out.read_bytes() == before

    @pytest.mark.parametrize("section", [None, "task", "corruption", "penalties"])
    def test_train_unknown_config_key(self, capsys, tmp_path, section):
        config = json.loads(json.dumps(self.SMALL))
        (config[section] if section else config)["bogus"] = 1
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, out, err = run(capsys, "train", "--config", str(cfg))
        assert code == 1
        assert out == ""
        assert "error:" in err and "bogus" in err and "Traceback" not in err

    @pytest.mark.parametrize("field,change", [
        ("hidden", {"hidden": "a"}),
        ("vocab_size", {"task": {"vocab_size": 2.5}}),
        ("learning_rate", {"learning_rate": "x"}),
        ("epochs", {"epochs": True}),
        ("rate", {"corruption": {"rate": "x"}}),
        ("seed", {"corruption": {"seed": "a"}}),
        ("lambda1", {"penalties": {"lambda1": "a"}}),
        ("lambda1", {"penalties": {"lambda1": True}}),
    ])
    def test_train_wrong_typed_value(self, capsys, tmp_path, field, change):
        config = json.loads(json.dumps(self.SMALL))
        for key, value in change.items():
            if isinstance(value, dict):
                config[key].update(value)
            else:
                config[key] = value
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, out, err = run(capsys, "train", "--config", str(cfg))
        assert code == 1
        assert out == ""
        assert f"error: {field} must be of type" in err and "Traceback" not in err

    def test_train_missing_config_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "train", "--config", str(tmp_path / "none.json"))
        assert code == 1
        assert "error:" in err


class TestUnreadableInputFiles:
    """Every input file that is not UTF-8 JSON is one error line naming it, for every role."""

    FAULTS = {
        "not_json": b"not json",
        "not_utf8": b'{"id": 0, "tokens": [1]}\xff\n',
        "too_deep": b"[" * 100_000,
    }
    ROLES = {
        "loss_tensor": ["loss", "--criterion", "rnnt", "--tensor", "{bad}", "--tokens", ""],
        "graph_tensor": ["graph", "--type", "rnnt", "--tokens", "", "--tensor", "{bad}"],
        "corrupt_input": ["corrupt", "--input", "{bad}", "--vocab-size", "3", "--kind", "sub", "--rate", "0.5"],
        "score_ref": ["score", "--ref", "{bad}", "--hyp", "{ok}"],
        "score_hyp": ["score", "--ref", "{ok}", "--hyp", "{bad}"],
        "train_config": ["train", "--config", "{bad}"],
        "sweep_config": ["sweep", "--config", "{bad}", "--output", "{out}"],
        "sweep_resume": ["sweep", "--output", "{bad}", "--resume", "--kinds", "sub", "--rates", "0.0"],
    }

    @pytest.mark.parametrize("fault", FAULTS)
    @pytest.mark.parametrize("role", ROLES)
    def test_file_is_named(self, capsys, tmp_path, role, fault):
        paths = {"bad": tmp_path / "bad.json", "ok": tmp_path / "ok.jsonl", "out": tmp_path / "out.jsonl"}
        paths["bad"].write_bytes(self.FAULTS[fault])
        write_jsonl(paths["ok"], [{"id": 0, "tokens": [1]}])
        code, out, err = run(capsys, *(arg.format(**paths) for arg in self.ROLES[role]))
        assert code == 1 and out == ""
        assert err.startswith(f"error: {paths['bad']}") and err.count("\n") == 1
        assert "Traceback" not in err
        assert paths["bad"].read_bytes() == self.FAULTS[fault] and not paths["out"].exists()


class TestUsageErrors:
    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_bad_choice_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["loss", "--criterion", "ctc", "--tensor", "x", "--tokens", "1"])
        assert exc.value.code == 2

    def test_nan_lambda_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["graph", "--type", "wst", "--tokens", "1", "--frames", "2",
                  "--vocab-size", "3", "--lambda1=nan"])
        assert exc.value.code == 2
