"""Tests for views, view identifiers and the genealogy DAG."""

import operator

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.vsync import View, ViewGenealogy, ViewId, merge_member_order


def vid(coord, seq):
    return ViewId(coord, seq)


def test_view_id_equality_and_order():
    assert vid("p0", 1) == vid("p0", 1)
    assert vid("p0", 1) < vid("p0", 2)
    assert vid("p0", 9) < vid("p1", 1)


view_ids = st.builds(ViewId, st.sampled_from(["", "p0", "p1", "p10"]), st.integers(-1, 3))


@given(a=view_ids, b=view_ids)
def test_view_id_eq_hash_and_order_agree_with_field_tuples(a, b):
    """``ViewId.__eq__`` is hand-written (identity fast path); it must
    answer exactly what the generated one did: field-tuple comparison."""
    ta, tb = (a.coordinator, a.seq), (b.coordinator, b.seq)
    for op in (operator.eq, operator.ne, operator.lt, operator.le, operator.gt, operator.ge):
        assert op(a, b) == op(ta, tb)
    assert a == a and not (a != a)
    if a == b:
        assert hash(a) == hash(b)
    assert hash(a) == hash(ViewId(a.coordinator, a.seq))


@given(a=view_ids)
def test_view_id_never_equals_another_type(a):
    for other in (None, (a.coordinator, a.seq), str(a), a.seq):
        assert a != other and other != a
        assert not (a == other) and not (other == a)


def test_view_id_str():
    assert str(vid("p3", 7)) == "p3#7"


def test_view_requires_members():
    with pytest.raises(ValueError):
        View("g", vid("p0", 1), ())


def test_view_rejects_duplicate_members():
    with pytest.raises(ValueError):
        View("g", vid("p0", 1), ("a", "a"))


def test_view_coordinator_is_first_member():
    view = View("g", vid("p9", 1), ("b", "a"))
    assert view.coordinator == "b"


def test_view_rank_and_contains():
    view = View("g", vid("p0", 1), ("x", "y", "z"))
    assert view.rank_of("y") == 1
    assert view.contains("z")
    assert not view.contains("w")


def test_merge_member_order_is_deterministic():
    v1 = View("g", vid("p0", 5), ("a", "b"))
    v2 = View("g", vid("p9", 2), ("c", "d"))
    order1 = merge_member_order([v1, v2])
    order2 = merge_member_order([v2, v1])
    assert order1 == order2


def test_merge_member_order_sorts_branches_by_view_id():
    older = View("g", vid("a", 1), ("x", "y"))
    newer = View("g", vid("z", 1), ("q", "r"))
    assert merge_member_order([newer, older]) == ("x", "y", "q", "r")


def test_merge_member_order_dedupes():
    v1 = View("g", vid("a", 1), ("x", "y"))
    v2 = View("g", vid("b", 1), ("y", "z"))
    assert merge_member_order([v1, v2]) == ("x", "y", "z")


def test_merge_member_order_preserves_branch_seniority():
    v1 = View("g", vid("a", 1), ("b", "a"))  # b senior to a
    assert merge_member_order([v1]) == ("b", "a")


# ----------------------------------------------------------------------
# Genealogy
# ----------------------------------------------------------------------
def chain(genealogy, *ids):
    """Record a linear ancestry: ids[0] <- ids[1] <- ..."""
    for parent, child in zip(ids, ids[1:]):
        genealogy.record(child, [parent])


def test_ancestor_direct():
    g = ViewGenealogy()
    chain(g, vid("p", 1), vid("p", 2))
    assert g.is_ancestor(vid("p", 1), vid("p", 2))
    assert not g.is_ancestor(vid("p", 2), vid("p", 1))


def test_ancestor_transitive():
    g = ViewGenealogy()
    chain(g, vid("p", 1), vid("p", 2), vid("p", 3), vid("p", 4))
    assert g.is_ancestor(vid("p", 1), vid("p", 4))


def test_self_is_not_ancestor():
    g = ViewGenealogy()
    chain(g, vid("p", 1), vid("p", 2))
    assert not g.is_ancestor(vid("p", 1), vid("p", 1))


def test_merge_has_two_ancestries():
    g = ViewGenealogy()
    merged = vid("m", 1)
    g.record(merged, [vid("a", 1), vid("b", 1)])
    assert g.is_ancestor(vid("a", 1), merged)
    assert g.is_ancestor(vid("b", 1), merged)


def test_concurrent_views():
    g = ViewGenealogy()
    root = vid("r", 1)
    g.record(vid("a", 1), [root])
    g.record(vid("b", 1), [root])
    assert g.concurrent(vid("a", 1), vid("b", 1))
    assert not g.concurrent(root, vid("a", 1))
    assert not g.concurrent(vid("a", 1), vid("a", 1))


def test_unknown_views_are_concurrent():
    g = ViewGenealogy()
    assert g.concurrent(vid("x", 1), vid("y", 1))


def test_ancestors_of_collects_full_history():
    g = ViewGenealogy()
    chain(g, vid("p", 1), vid("p", 2), vid("p", 3))
    assert g.ancestors_of(vid("p", 3)) == {vid("p", 1), vid("p", 2)}


def test_record_accumulates_parents():
    g = ViewGenealogy()
    g.record(vid("c", 1), [vid("a", 1)])
    g.record(vid("c", 1), [vid("b", 1)])
    assert set(g.parents_of(vid("c", 1))) == {vid("a", 1), vid("b", 1)}


def test_merge_from_absorbs_other_genealogy():
    g1, g2 = ViewGenealogy(), ViewGenealogy()
    chain(g1, vid("p", 1), vid("p", 2))
    chain(g2, vid("q", 1), vid("q", 2))
    g1.merge_from(g2)
    assert g1.is_ancestor(vid("q", 1), vid("q", 2))
    assert g1.is_ancestor(vid("p", 1), vid("p", 2))


def test_known_views_includes_parents_and_children():
    g = ViewGenealogy()
    g.record(vid("c", 1), [vid("a", 1)])
    assert g.known_views() == {vid("c", 1), vid("a", 1)}


def test_record_view_uses_view_parents():
    g = ViewGenealogy()
    view = View("g", vid("n", 2), ("x",), parents=(vid("n", 1),))
    g.record_view(view)
    assert g.is_ancestor(vid("n", 1), vid("n", 2))
