"""Tests for the transducer construction: quality scoring, parameter
validation, and full deterministic builds."""

import hashlib

import pytest

from grigorchuk import (
    BuildParams,
    build,
    max_cycle_ratio,
    parse_graph,
    quality,
    serialize_graph,
    verify_graph,
)
from grigorchuk.builder import _candidates
from grigorchuk.minforms import (TUNED_WEIGHTS, UNIT_WEIGHTS, MinimalForms,
                                 parse_weights)

# weights under which the construction lands on its lowest measured cycle
# ratio; several build tests share one graph because a build takes seconds
VALLEY = parse_weights("a=1 b=2.7 c=2.0 d=1.3")


@pytest.fixture(scope="module")
def valley_build():
    log = []
    return build(BuildParams(initial_weight=VALLEY), log=log), log


@pytest.fixture(scope="module")
def valley_graph(valley_build):
    return valley_build[0]


class TestQuality:
    def test_full_cancellation_score(self):
        # emitting cacacaca at the (dada,dada) buffer clears it entirely:
        # the score is the whole buffer weight over the output weight
        q = quality(("dada", "dada"), "cacacaca", TUNED_WEIGHTS, delta=0.0)
        assert q == pytest.approx(82400 / 152000, abs=1e-12)

    def test_balance_bonus(self):
        # aca clears the (d,a) buffer; with unequal component weights the
        # delta term adds the recovered imbalance, scaled down
        base = quality(("d", "a"), "aca", TUNED_WEIGHTS, delta=0.0)
        bumped = quality(("d", "a"), "aca", TUNED_WEIGHTS, delta=1.0)
        assert base == pytest.approx(20600 / 48000, abs=1e-12)
        assert bumped - base == pytest.approx(600 / 10000, abs=1e-12)

    def test_empty_buffer_never_worth_emitting(self):
        assert quality(("", ""), "aca", dict(UNIT_WEIGHTS), delta=0.0) < 0

    def test_rejects_empty_output(self):
        with pytest.raises(ValueError, match="empty output"):
            quality(("d", "a"), "", dict(UNIT_WEIGHTS), delta=0.0)

    def test_rejects_odd_parity_output(self):
        with pytest.raises(ValueError, match="odd a-parity"):
            quality(("d", "a"), "bab", dict(UNIT_WEIGHTS), delta=0.0)


class TestParams:
    def test_defaults_valid(self):
        BuildParams(initial_weight=VALLEY).validate()

    def test_max_len_floor(self):
        with pytest.raises(ValueError, match="max_len"):
            BuildParams(initial_weight=VALLEY, max_len=2).validate()

    def test_eta_prime_range(self):
        with pytest.raises(ValueError, match="eta_prime"):
            BuildParams(initial_weight=VALLEY, eta_prime=2.0).validate()
        with pytest.raises(ValueError, match="eta_prime"):
            BuildParams(initial_weight=VALLEY, eta_prime=4.5).validate()
        BuildParams(initial_weight=VALLEY, eta_prime=4.0).validate()

    def test_delta_positive(self):
        with pytest.raises(ValueError, match="delta"):
            BuildParams(initial_weight=VALLEY, delta=0.0).validate()

    def test_triangular_weights_required(self):
        lopsided = {"a": 10000, "b": 10000, "c": 10000, "d": 30001}
        with pytest.raises(ValueError, match="triangular"):
            BuildParams(initial_weight=lopsided).validate()

    def test_candidate_order_names(self):
        with pytest.raises(ValueError, match="candidate_order"):
            BuildParams(initial_weight=VALLEY, candidate_order="speed").validate()


class TestBuild:
    def test_shape(self, valley_graph):
        kinds = [st.kind for st in valley_graph.states.values()]
        assert len(valley_graph.states) == 221
        assert kinds.count("input") == 19
        assert kinds.count("output") == 202
        assert len(valley_graph.transitions) == 412
        assert sum(t.special for t in valley_graph.transitions) == 78

    def test_verifies_clean(self, valley_graph):
        report = verify_graph(valley_graph)
        assert report.ok
        assert report.violations == []

    def test_cycle_ratio(self, valley_graph):
        eta, witness = max_cycle_ratio(valley_graph)
        assert eta == pytest.approx(4.123894, abs=1e-4)
        assert witness.cycle

    def test_rebuild_byte_identical(self, valley_graph):
        again = build(BuildParams(initial_weight=VALLEY))
        assert serialize_graph(again) == serialize_graph(valley_graph)

    def test_build_log(self, valley_build):
        _, log = valley_build
        assert log[0] == "candidate outputs: 18221"
        assert any(line.startswith("output ") for line in log)
        assert log[-2] == "states: 221 (19 input), specials attached: 39"
        assert log[-1] == "candidates scanned: 142578"

    def test_candidates_weight_sorted(self):
        # both cuts in best_output stop the scan on this order
        weights = [c.weight for c in _candidates(MinimalForms(VALLEY), 12, None)]
        assert weights == sorted(weights)

    # sha256 of serialize_graph(build(...)) as a full, uncut scan gives it;
    # a cut that changes a winner fails here
    @pytest.mark.parametrize("kwargs, digest", [
        (dict(initial_weight=VALLEY, max_len=16),
         "dfaee3ac1ea8ac5f2b6438374b2c20b3d36d711879f8ba2faf014b7b20144f06"),
        (dict(initial_weight=VALLEY, max_len=16, candidate_order="contract"),
         "dfaee3ac1ea8ac5f2b6438374b2c20b3d36d711879f8ba2faf014b7b20144f06"),
        (dict(initial_weight=VALLEY, max_len=16, candidate_order="margin"),
         "fdf958362d2efd2d1bb6c850900687aeb328c5e3dd15a367e97d56e51842abc7"),
        (dict(initial_weight=parse_weights("a=1 b=3.33 c=2.8 d=1.06"),
              max_len=14),
         "e7f330f380b1e9a571c7be22354bf5c05949bc19a554148ad8ece49dbf4737df"),
        (dict(initial_weight=dict(UNIT_WEIGHTS), max_len=12),
         "889fabc63a1699c4c71fb08185cd08efb61af7c104bf746e20a1257d6109ca50"),
        (dict(initial_weight=parse_weights("a=1 b=2.5 c=2.2 d=1.4"),
              max_len=14, eta_prime=3.6),
         "ab680534f7dd0a2d7de2fc780f758519fbee6464eb52abc62229d8e809c5a589"),
    ], ids=["valley-quality", "valley-contract", "valley-margin",
            "b3.33-c2.8-d1.06", "unit", "eta-prime-3.6"])
    def test_output_digest(self, kwargs, digest):
        graph = build(BuildParams(**kwargs))
        text = serialize_graph(graph)
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        # the file verifies as the machine it was written from
        built, reparsed = verify_graph(graph), verify_graph(parse_graph(text))
        assert (reparsed.ok, reparsed.violations, reparsed.swapped_successors) \
            == (built.ok, built.violations, built.swapped_successors)

    def test_budget_exceeded(self):
        with pytest.raises(RuntimeError, match="budget exceeded"):
            build(BuildParams(initial_weight=VALLEY, budget=50))

    def test_margin_order_differs(self, valley_graph):
        g = build(BuildParams(initial_weight=VALLEY, candidate_order="margin"))
        assert verify_graph(g).ok
        assert len(g.states) == 192
        eta, _ = max_cycle_ratio(g)
        assert eta == pytest.approx(4.423077, abs=1e-4)
        assert serialize_graph(g) != serialize_graph(valley_graph)

    def test_contract_order_matches_quality_here(self, valley_graph):
        # at these weights no state has a candidate meeting the full
        # contraction surplus, so the class split never changes the pick
        g = build(BuildParams(initial_weight=VALLEY, candidate_order="contract"))
        assert serialize_graph(g) == serialize_graph(valley_graph)
