"""Red-black tree tests, including a hypothesis model-based check."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.kernel.rbtree import BLACK, RBTree


def test_empty_tree():
    t = RBTree()
    assert len(t) == 0
    assert not t
    assert t.minimum() is None
    assert t.pop_min() is None
    t.check_invariants()


def test_single_insert():
    t = RBTree()
    t.insert(5, "a")
    assert len(t) == 1
    assert t.minimum().value == "a"
    assert t.root.color == BLACK
    t.check_invariants()


def test_insert_ascending_stays_balanced():
    t = RBTree()
    for i in range(100):
        t.insert(i, i)
        t.check_invariants()
    assert [k for k, _ in t.items()] == list(range(100))


def test_insert_descending_stays_balanced():
    t = RBTree()
    for i in reversed(range(100)):
        t.insert(i, i)
    t.check_invariants()
    assert t.minimum().key == 0


def test_pop_min_drains_in_order():
    t = RBTree()
    import random

    rng = random.Random(42)
    keys = list(range(200))
    rng.shuffle(keys)
    for k in keys:
        t.insert(k, k)
    out = []
    while t:
        out.append(t.pop_min().key)
    assert out == list(range(200))


def test_delete_by_handle():
    t = RBTree()
    nodes = {k: t.insert(k, k) for k in range(20)}
    t.delete(nodes[7])
    t.delete(nodes[0])
    t.delete(nodes[19])
    t.check_invariants()
    assert [k for k, _ in t.items()] == [
        k for k in range(20) if k not in (0, 7, 19)
    ]


def test_duplicate_keys_allowed():
    t = RBTree()
    t.insert(1, "a")
    t.insert(1, "b")
    t.insert(1, "c")
    assert len(t) == 3
    t.check_invariants()
    vals = {t.pop_min().value for _ in range(3)}
    assert vals == {"a", "b", "c"}


def test_leftmost_cache_follows_deletions():
    t = RBTree()
    nodes = [t.insert(i, i) for i in range(10)]
    assert t.minimum().key == 0
    t.delete(nodes[0])
    assert t.minimum().key == 1
    t.delete(nodes[1])
    t.delete(nodes[2])
    assert t.minimum().key == 3
    t.check_invariants()


def test_values_iteration():
    t = RBTree()
    for i in (3, 1, 2):
        t.insert(i, i * 10)
    assert list(t.values()) == [10, 20, 30]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(["ins", "del"]), st.integers(0, 50)),
        max_size=200,
    )
)
def test_property_model_based_vs_sorted_list(ops):
    """Random interleaved inserts/deletes match a sorted-list model and
    keep all red-black invariants."""
    tree = RBTree()
    model = []  # list of (key, node)
    for op, key in ops:
        if op == "ins":
            node = tree.insert(key, key)
            model.append((key, node))
        elif model:
            idx = key % len(model)
            _, node = model.pop(idx)
            tree.delete(node)
        tree.check_invariants()
        model_keys = sorted(k for k, _ in model)
        assert [k for k, _ in tree.items()] == model_keys
        if model_keys:
            assert tree.minimum().key == model_keys[0]
        else:
            assert tree.minimum() is None


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=100))
def test_property_float_keys(keys):
    tree = RBTree()
    for k in keys:
        tree.insert(k, None)
    tree.check_invariants()
    assert [k for k, _ in tree.items()] == sorted(keys)


def test_reversed_values_empty_and_partial():
    t = RBTree()
    assert list(t.reversed_values()) == []
    for i in (5, 1, 9, 3):
        t.insert(i, i)
    walk = t.reversed_values()
    assert next(walk) == 9  # the largest key comes first, lazily
    assert list(walk) == [5, 3, 1]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(["ins", "del"]), st.integers(0, 20)),
        max_size=150,
    )
)
def test_property_reversed_values_mirror_values(ops):
    """After random inserts/deletes (duplicate keys included) the lazy
    reverse walk is exactly the in-order walk reversed."""
    tree = RBTree()
    nodes = []
    for serial, (op, key) in enumerate(ops):
        if op == "ins":
            nodes.append(tree.insert(key, (key, serial)))
        elif nodes:
            tree.delete(nodes.pop(key % len(nodes)))
        assert list(tree.reversed_values()) == list(tree.values())[::-1]
