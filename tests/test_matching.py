import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from dynmatch.errors import MatchingCorruptionError
from dynmatch.graph import DynamicGraph
from dynmatch.matching import (
    FREE,
    MatchingAuditor,
    MatchingState,
    UnitMatching,
)

from conftest import build_graph
from support.matching import matching_weight_of, matching_weight_recompute


# The mate-list checks run on both kinds of matching; ``match`` adds a pair
# of weight w to either (a UnitMatching has no weights).


def match(st, u, v, w):
    if isinstance(st, MatchingState):
        st.match_edge(u, v, w)
    else:
        st.match_edge(u, v)


def check_mate_symmetry(st):
    match(st, 0, 2, 7)
    assert st.mate_of(0) == 2
    assert st.mate_of(2) == 0
    assert st.mate_of(1) == FREE
    assert st.mate_of(3) == FREE
    assert st.matched_pairs() == [(0, 2)]
    assert st.matched_count() == 1


def check_match_over_matched_vertex_rejected(st):
    match(st, 0, 1, 3)
    with pytest.raises(ValueError):
        match(st, 1, 2, 5)
    with pytest.raises(ValueError):
        match(st, 2, 2, 5)
    assert st.matched_pairs() == [(0, 1)]


def check_unmatch_frees_both_endpoints(st):
    match(st, 0, 1, 3)
    match(st, 2, 3, 4)
    changed = st.watch()
    st.unmatch(1)
    assert st.mate_of(0) == FREE and st.mate_of(1) == FREE
    assert changed == {0, 1}
    assert st.matched_pairs() == [(2, 3)]
    assert st.matched_count() == 1
    with pytest.raises(ValueError):
        st.unmatch(0)


def test_match_and_mate_symmetry():
    st = MatchingState(4)
    check_mate_symmetry(st)
    assert st.total_weight == 7
    assert st.stored_weight(0) == st.stored_weight(2) == 7


def test_match_over_matched_vertex_rejected():
    st = MatchingState(4)
    check_match_over_matched_vertex_rejected(st)
    with pytest.raises(ValueError):
        st.match_edge(2, 3, 0)


def test_unmatch_frees_both_endpoints():
    st = MatchingState(4)
    check_unmatch_frees_both_endpoints(st)
    assert st.total_weight == 4


def test_unmatch_free_vertex_rejected():
    st = MatchingState(2)
    with pytest.raises(ValueError):
        st.unmatch(0)


@pytest.mark.parametrize(
    "check",
    [
        check_mate_symmetry,
        check_match_over_matched_vertex_rejected,
        check_unmatch_frees_both_endpoints,
    ],
)
def test_unit_matching_mate_checks(check):
    check(UnitMatching(4))


def test_unit_matching_pairs_are_canonical_and_ascending():
    st = UnitMatching(6)
    st.match_edge(5, 2)
    st.match_edge(1, 0)
    assert st.matched_pairs() == [(0, 1), (2, 5)]
    assert st.matched_count() == 2


def test_recompute_empty_matching_is_zero():
    g = DynamicGraph(3)
    st = MatchingState(3)
    assert matching_weight_recompute(st, g) == 0


def test_recompute_matches_maintained_weight():
    g = build_graph(4, [(0, 1, 5), (2, 3, 2)])
    st = MatchingState(4)
    st.match_edge(0, 1, 5)
    st.match_edge(2, 3, 2)
    assert matching_weight_recompute(st, g) == 7 == st.total_weight
    MatchingAuditor(st, g)


def test_recompute_detects_absent_pair():
    g = build_graph(4, [(0, 1, 5)])
    st = MatchingState(4)
    st.match_edge(0, 1, 5)
    g.delete_edge(0, 1)
    with pytest.raises(MatchingCorruptionError):
        matching_weight_recompute(st, g)
    with pytest.raises(MatchingCorruptionError):
        MatchingAuditor(st, g)


def test_consistency_detects_weight_drift():
    g = build_graph(2, [(0, 1, 5)])
    st = MatchingState(2)
    st.match_edge(0, 1, 5)
    st.total_weight = 6
    with pytest.raises(MatchingCorruptionError):
        MatchingAuditor(st, g)


def test_consistency_detects_stale_stored_weight():
    g = build_graph(2, [(0, 1, 5)])
    st = MatchingState(2)
    st.match_edge(0, 1, 4)
    st.total_weight = 5
    with pytest.raises(MatchingCorruptionError):
        MatchingAuditor(st, g)


def test_matching_weight_of():
    g = build_graph(4, [(0, 1, 5), (2, 3, 2)])
    assert matching_weight_of([(0, 1), (2, 3)], g) == 7
    assert matching_weight_of([], g) == 0


def test_random_match_unmatch_churn_stays_consistent():
    rng = random.Random(5)
    n = 30
    g = DynamicGraph(n)
    st = MatchingState(n)
    for _ in range(5000):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        if st.mate_of(u) == v:
            st.unmatch(u)
            g.delete_edge(u, v)
        elif st.mate_of(u) == FREE and st.mate_of(v) == FREE:
            w = rng.randint(1, 100)
            if not g.has_edge(u, v):
                g.insert_edge(u, v, w)
            st.match_edge(u, v, g.weight(u, v))
    MatchingAuditor(st, g)
    assert matching_weight_recompute(st, g) == st.total_weight


# -- O(Δ) auditor ------------------------------------------------------------


def audited_pairs():
    """Graph with two matched edges and an auditor that has seen them."""
    g = build_graph(6, [(0, 1, 5), (2, 3, 2), (4, 5, 3)])
    st = MatchingState(6)
    st.match_edge(0, 1, 5)
    st.match_edge(2, 3, 2)
    return g, st, MatchingAuditor(st, g)


def test_auditor_follows_legal_changes():
    g, st, auditor = audited_pairs()
    st.unmatch(0)
    g.delete_edge(0, 1)
    st.match_edge(4, 5, 3)
    auditor.check()
    g.insert_edge(1, 2, 9)
    st.unmatch(2)
    st.match_edge(1, 2, 9)
    auditor.check()
    auditor.check(deep=True)


def test_auditor_catches_matched_edge_deleted_behind_the_back():
    g, st, auditor = audited_pairs()
    g.delete_edge(2, 3)  # the matching is never told
    with pytest.raises(MatchingCorruptionError, match="not an edge"):
        auditor.check()


def test_auditor_catches_total_weight_drift():
    _g, st, auditor = audited_pairs()
    st.total_weight += 1
    with pytest.raises(MatchingCorruptionError, match="weight drift"):
        auditor.check()


def test_auditor_catches_asymmetric_mate_at_touched_vertex():
    _g, st, auditor = audited_pairs()
    st.match_edge(4, 5, 3)
    st._mate[5] = FREE
    with pytest.raises(MatchingCorruptionError, match="out of sync"):
        auditor.check()


def test_deep_check_catches_tampering_at_untouched_vertex():
    g, st, auditor = audited_pairs()
    g._weight[(2, 3)] = 7  # no watcher sees a write to the internals
    st.match_edge(4, 5, 3)  # an unrelated change elsewhere
    auditor.check()  # shallow: only 4 and 5 are inspected
    with pytest.raises(MatchingCorruptionError, match="stored weight"):
        auditor.check(deep=True)


def test_deep_check_names_a_mate_that_is_not_a_vertex():
    g, st, auditor = audited_pairs()
    for bad in (6, 99, -2):
        st._mate[4] = bad
        with pytest.raises(
            MatchingCorruptionError, match=rf"vertex 4: mate\[4\]={bad}, not a vertex"
        ):
            auditor.check(deep=True)


# -- MatchingState against a pair-dict model -----------------------------------


@settings(max_examples=200, deadline=None)
@given(
    hs.lists(
        hs.tuples(
            hs.booleans(),
            hs.integers(0, 7),
            hs.integers(0, 7),
            hs.integers(1, 100),
        ),
        max_size=60,
    )
)
def test_matching_state_agrees_with_a_pair_dict_model(ops):
    """Random match_edge/unmatch sequences, refused ones included, keep the
    per-vertex weights equal to a {(min, max): w} model after every step."""
    n = 8
    g = DynamicGraph(n)
    state = MatchingState(n)
    auditor = MatchingAuditor(state, g)
    model: dict[tuple[int, int], int] = {}
    for is_match, u, v, w in ops:
        covered = {x for pair in model for x in pair}
        if is_match:
            if u == v or u in covered or v in covered:
                with pytest.raises(ValueError):
                    state.match_edge(u, v, w)
            else:
                # The auditor compares stored weights with the graph's.
                if g.has_edge(u, v):
                    g.delete_edge(u, v)
                g.insert_edge(u, v, w)
                state.match_edge(u, v, w)
                model[(min(u, v), max(u, v))] = w
        elif u not in covered:
            with pytest.raises(ValueError):
                state.unmatch(u)
        else:
            m = state.mate_of(u)
            state.unmatch(u)
            del model[(min(u, m), max(u, m))]
        for (a, b), w in model.items():
            assert state.stored_weight(a) == state.stored_weight(b) == w
        covered = {x for pair in model for x in pair}
        assert all(state._mw[x] == 0 for x in range(n) if x not in covered)
        assert state.total_weight == sum(model.values())
        assert state.matched_pairs() == sorted(model)
        auditor.check(deep=True)
