import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from wst.exceptions import CyclicGraph, NoPath
from wst.graphs import build_rnnt_lattice
from wst.oracle import enumerate_paths
from wst.vocab import Vocab
from wst.wfst import (
    EPSILON,
    NEG_INF,
    Arc,
    ArcKind,
    Wfst,
    arc_posteriors,
    backward_scores,
    export_dot,
    export_json,
    forward_scores,
    topo_sort,
    total_weight,
    wfst_from_json,
)


def chain(weights):
    arcs = [Arc(i, i + 1, EPSILON, EPSILON, w) for i, w in enumerate(weights)]
    return Wfst(num_states=len(weights) + 1, start=0, final=len(weights), arcs=arcs)


def parallel(weights):
    arcs = [Arc(0, 1, EPSILON, EPSILON, w) for w in weights]
    return Wfst(num_states=2, start=0, final=1, arcs=arcs)


def random_dag(rng, num_states, arc_prob=0.5):
    arcs = []
    for s in range(num_states - 1):
        for d in range(s + 1, num_states):
            if rng.random() < arc_prob:
                arcs.append(Arc(s, d, EPSILON, EPSILON, float(rng.normal())))
    return Wfst(num_states=num_states, start=0, final=num_states - 1, arcs=arcs)


class TestTopoSort:
    def test_two_state_chain(self):
        assert topo_sort(chain([-1.0])) == [0, 1]

    def test_self_loop_rejected(self):
        g = Wfst(2, 0, 1, [Arc(0, 0, EPSILON, EPSILON, 0.0), Arc(0, 1, EPSILON, EPSILON, 0.0)])
        with pytest.raises(CyclicGraph):
            topo_sort(g)

    def test_rnnt_lattice_t2_u1(self):
        lp = np.full((2, 2, 3), math.log(1 / 3))
        g = build_rnnt_lattice(Vocab(3), [1], lp)
        order = topo_sort(g)
        assert len(order) == 6
        assert order[0] == g.start
        assert order[-1] == g.final

    def test_every_arc_goes_forward(self):
        rng = np.random.default_rng(3)
        g = random_dag(rng, 10)
        pos = {s: i for i, s in enumerate(topo_sort(g))}
        assert all(pos[a.src] < pos[a.dst] for a in g.arcs)


class TestTotalWeight:
    def test_single_arc(self):
        assert total_weight(chain([-1.5])) == -1.5

    def test_two_parallel_halves(self):
        g = parallel([math.log(0.5), math.log(0.5)])
        assert total_weight(g) == pytest.approx(0.0, abs=1e-12)

    def test_rnnt_uniform_t2_u1(self):
        lp = np.full((2, 2, 3), math.log(1 / 3))
        g = build_rnnt_lattice(Vocab(3), [1], lp)
        assert total_weight(g) == pytest.approx(math.log(2 / 27), abs=1e-12)

    def test_no_path_gives_neg_inf(self):
        g = Wfst(3, 0, 2, [Arc(0, 1, EPSILON, EPSILON, 0.0)])
        assert total_weight(g) == NEG_INF

    def test_disabled_arc_after_overflow_is_no_path(self):
        g = chain([1e308, 1e308, NEG_INF])
        assert total_weight(g) == NEG_INF
        with pytest.raises(NoPath, match="no accepting path"):
            arc_posteriors(g)

    def test_overflow_raises_no_path(self):
        with pytest.raises(NoPath, match="overflowed"):
            total_weight(chain([1e308, 1e308]))

    def test_overflow_met_by_a_finite_path_raises_no_path(self):
        # the overflowed chain into state 2 meets the direct arc there; a max-shift log-add made it NaN
        arcs = [Arc(0, 1, EPSILON, EPSILON, 1e308), Arc(1, 2, EPSILON, EPSILON, 1e308),
                Arc(0, 2, EPSILON, EPSILON, 0.0)]
        with pytest.raises(NoPath, match="overflowed"):
            total_weight(Wfst(3, 0, 2, arcs))

    def test_oracle_equivalence_random_graphs(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            g = random_dag(rng, int(rng.integers(3, 13)))
            paths = enumerate_paths(g)
            expected = np.logaddexp.reduce([w for _, w in paths])
            assert total_weight(g) == pytest.approx(expected, abs=1e-10)


class TestArcPosteriors:
    def test_single_arc(self):
        assert arc_posteriors(chain([-2.0])) == [pytest.approx(1.0)]

    def test_two_parallel_normalized(self):
        g = parallel([math.log(1 / 3), math.log(2 / 3)])
        post = arc_posteriors(g)
        assert post[0] == pytest.approx(1 / 3, abs=1e-12)
        assert post[1] == pytest.approx(2 / 3, abs=1e-12)

    def test_rnnt_token_arcs_half(self):
        lp = np.full((2, 2, 3), math.log(1 / 3))
        g = build_rnnt_lattice(Vocab(3), [1], lp)
        post = arc_posteriors(g)
        token_posts = [p for a, p in zip(g.arcs, post) if a.kind == ArcKind.TOKEN]
        assert token_posts == [pytest.approx(0.5), pytest.approx(0.5)]

    def test_no_path_raises(self):
        g = Wfst(3, 0, 2, [Arc(0, 1, EPSILON, EPSILON, 0.0)])
        with pytest.raises(NoPath):
            arc_posteriors(g)

    def test_overflowed_total_raises(self):
        with pytest.raises(NoPath, match="overflowed"):
            arc_posteriors(chain([1e308, 1e308]))

    def test_dead_end_overflow_is_zero(self):
        # the branch through states 2 and 3 overflows alpha but reaches no final state
        arcs = [Arc(0, 1, EPSILON, EPSILON, 0.0), Arc(0, 2, EPSILON, EPSILON, 1e308),
                Arc(2, 3, EPSILON, EPSILON, 1e308), Arc(3, 4, EPSILON, EPSILON, -1.0)]
        assert arc_posteriors(Wfst(5, 0, 1, arcs)) == [1.0, 0.0, 0.0, 0.0]

    def test_flow_conservation(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            g = random_dag(rng, 9)
            if total_weight(g) == NEG_INF:
                continue
            post = arc_posteriors(g)
            for s in range(g.num_states):
                if s in (g.start, g.final):
                    continue
                inflow = sum(p for a, p in zip(g.arcs, post) if a.dst == s)
                outflow = sum(p for a, p in zip(g.arcs, post) if a.src == s)
                assert inflow == pytest.approx(outflow, abs=1e-10)

    def test_backward_scores_sum_paths_to_final(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            g = random_dag(rng, int(rng.integers(2, 10)), arc_prob=0.4)
            beta = backward_scores(g)
            for s in range(g.num_states):
                paths = enumerate_paths(Wfst(g.num_states, s, g.final, g.arcs))
                if paths:
                    assert beta[s] == pytest.approx(np.logaddexp.reduce([w for _, w in paths]), abs=1e-12)
                else:
                    assert beta[s] == NEG_INF

    def test_forward_backward_cut_consistency(self):
        rng = np.random.default_rng(9)
        g = random_dag(rng, 8, arc_prob=0.7)
        order = topo_sort(g)
        alpha = forward_scores(g, order)
        beta = backward_scores(g, order)
        total = alpha[g.final]
        pos = {s: i for i, s in enumerate(order)}
        # cut between every adjacent pair of the topological order
        for cut in range(1, len(order)):
            crossing = [
                alpha[a.src] + a.weight + beta[a.dst]
                for a in g.arcs
                if pos[a.src] < cut <= pos[a.dst]
            ]
            if crossing:
                assert np.logaddexp.reduce(crossing) == pytest.approx(total, abs=1e-10)

    def test_gradient_identity_finite_differences(self):
        rng = np.random.default_rng(17)
        g = random_dag(rng, 8, arc_prob=0.7)
        post = arc_posteriors(g)
        delta = 1e-6
        for i in range(len(g.arcs)):
            def perturbed(eps):
                arcs = list(g.arcs)
                a = arcs[i]
                arcs[i] = Arc(a.src, a.dst, a.label, a.olabel, a.weight + eps, a.kind)
                return total_weight(Wfst(g.num_states, g.start, g.final, arcs))

            fd = (perturbed(delta) - perturbed(-delta)) / (2 * delta)
            denom = max(abs(fd), abs(post[i]), 1e-8)
            assert abs(fd - post[i]) / denom <= 1e-4


class TestExport:
    def test_empty_transcript_lattice_dot(self):
        lp = np.full((1, 1, 2), math.log(0.5))
        g = build_rnnt_lattice(Vocab(2), [], lp)
        assert g.num_states == 3
        assert len(g.arcs) == 2
        dot = export_dot(g)
        assert dot.count("->") == 2
        assert "doublecircle" in dot

    def test_json_round_trip(self):
        rng = np.random.default_rng(23)
        g = random_dag(rng, 7)
        assert wfst_from_json(export_json(g)) == g

    def test_json_round_trip_with_neg_inf_weight(self):
        g = parallel([NEG_INF, -1.0])
        assert wfst_from_json(export_json(g)) == g

    def test_json_round_trip_with_numpy_scalars(self):
        # serialized as the Python scalars they hold: the float32 weight is not truncated to an int
        g = Wfst(np.int64(2), 0, 1, [Arc(0, np.int64(1), np.int64(1), 1, np.float32(-0.5))])
        parsed = wfst_from_json(export_json(g))
        assert parsed == g and parsed.arcs[0].weight == -0.5

    def test_fig2_scale_lattice_states(self):
        lp = np.full((4, 4, 4), math.log(0.25))
        g = build_rnnt_lattice(Vocab(4), [1, 2, 3], lp)
        parsed = wfst_from_json(export_json(g))
        assert parsed.num_states == 18

    @pytest.mark.parametrize("text, fault", [("{}", "lacks the key 'arcs'"),
                                             ('{"num_states": 2, "start": 0, "final": 1, "arcs": [1]}',
                                              "not a mapping")])
    def test_malformed_json_named(self, text, fault):
        with pytest.raises(ValueError, match=fault):
            wfst_from_json(text)

    def test_dot_annotation_format(self):
        g = chain([-1.25])
        assert 'label="eps:eps/-1.25"' in export_dot(g)


class TestInvariants:
    def test_final_state_no_outgoing(self):
        with pytest.raises(ValueError):
            Wfst(2, 0, 1, [Arc(1, 0, EPSILON, EPSILON, 0.0)])

    def test_state_ids_in_range(self):
        with pytest.raises(ValueError):
            Wfst(2, 0, 1, [Arc(0, 5, EPSILON, EPSILON, 0.0)])

    @pytest.mark.parametrize("weight", [math.nan, math.inf])
    def test_nan_and_plus_inf_weights_rejected(self, weight):
        with pytest.raises(ValueError, match="must not be NaN or \\+inf"):
            Wfst(2, 0, 1, [Arc(0, 1, 1, 1, weight)])

    @pytest.mark.parametrize("arc", [Arc(0, 1, 1, 1, "a"), Arc(0, 1, 1, 1, None), Arc(0, 1, 1, 1, True),
                                     Arc("0", 1, 1, 1, 0.0), Arc(0, 1.0, 1, 1, 0.0), Arc(False, 1, 1, 1, 0.0)],
                             ids=["str weight", "None weight", "bool weight", "str src", "float dst", "bool src"])
    def test_mistyped_arc_named(self, arc):
        with pytest.raises(ValueError, match=re.escape(f"arc {arc}")):
            Wfst(2, 0, 1, [arc])

    @pytest.mark.parametrize("fields, named", [(("2", 0, 1), "num_states"), ((2, 0.0, 1), "start"),
                                               ((2, 0, None), "final")])
    def test_mistyped_state_field_named(self, fields, named):
        with pytest.raises(ValueError, match=f"^{named} must be an integer"):
            Wfst(*fields)

    def test_numpy_scalars_accepted(self):
        g = Wfst(np.int64(2), np.int32(0), 1, [Arc(np.int64(0), 1, 1, 1, np.float64(-1.0))])
        assert total_weight(g) == -1.0

    @pytest.mark.parametrize("start, final, named", [(2, 1, "start"), (-1, 1, "start"), (0, 2, "final")])
    def test_start_and_final_in_range(self, start, final, named):
        with pytest.raises(ValueError, match=f"{named} state .* out of range"):
            Wfst(2, start, final)


finite = st.floats(min_value=-50, max_value=50)


def log_sum(*weights):
    """The package's log-sum: the forward sweep over parallel arcs, one np.logaddexp per arc."""
    return total_weight(parallel(weights))


def test_log_add_equal_weights():
    assert log_sum(0.0, 0.0) == pytest.approx(math.log(2), abs=1e-12)


def test_log_add_neg_inf_identity():
    assert log_sum(NEG_INF, -1.5) == -1.5
    assert log_sum(-1.5, NEG_INF) == -1.5
    assert log_sum(NEG_INF, NEG_INF) == NEG_INF


def test_log_add_probabilities_summing_to_one():
    assert log_sum(math.log(1 / 3), math.log(2 / 3)) == pytest.approx(0.0, abs=1e-12)


def test_log_sum_empty_is_zero_element():
    assert log_sum() == NEG_INF


def test_log_sum_four_quarters():
    assert log_sum(*[math.log(0.25)] * 4) == pytest.approx(0.0, abs=1e-12)


def test_log_sum_derived_value():
    expected = math.log(math.exp(-1) + math.exp(-2) + math.exp(-3))
    assert log_sum(-1.0, -2.0, -3.0) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(-0.592394, abs=1e-6)


def test_log_sum_all_neg_inf():
    assert log_sum(NEG_INF, NEG_INF) == NEG_INF


@pytest.mark.parametrize("a, b", [(math.inf, 1.0), (1.0, math.inf), (math.inf, math.inf), (math.inf, NEG_INF)])
def test_logaddexp_gives_plus_inf_not_nan(a, b):
    """The forward sweep's log-add is +inf on +inf, never NaN; a max-shift log-add gives NaN here."""
    assert np.logaddexp(a, b) == math.inf


@given(finite, finite, finite)
def test_associativity_within_tolerance(a, b, c):
    left = log_sum(log_sum(a, b), c)
    right = log_sum(a, log_sum(b, c))
    assert abs(left - right) <= 1e-12


@given(finite, finite)
def test_commutative(a, b):
    assert log_sum(a, b) == log_sum(b, a)


@given(finite, finite)
def test_monotonicity(a, b):
    # >= rather than >: the increment underflows for widely separated inputs
    assert log_sum(a, b) >= max(a, b)


@given(finite)
def test_monotonicity_equality_iff_neg_inf(a):
    assert log_sum(a, NEG_INF) == a


@given(st.floats(min_value=-700, max_value=700), st.floats(min_value=-700, max_value=700))
def test_no_overflow_up_to_700(a, b):
    r = log_sum(a, b)
    assert math.isfinite(r)
    assert r >= max(a, b)


@given(st.lists(finite, min_size=1, max_size=20))
def test_log_sum_order_independent(vals):
    assert abs(log_sum(*vals) - log_sum(*reversed(vals))) <= 1e-12
