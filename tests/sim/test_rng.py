"""Tests for the stream-split RNG registry."""

from repro.runtime import RngRegistry


def test_same_seed_same_stream_sequence():
    a = RngRegistry(7).stream("net")
    b = RngRegistry(7).stream("net")
    assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]


def test_different_seeds_differ():
    a = RngRegistry(1).stream("net")
    b = RngRegistry(2).stream("net")
    assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]


def test_streams_are_independent_of_creation_order():
    r1 = RngRegistry(9)
    r2 = RngRegistry(9)
    first_then_second = (r1.stream("a").random(), r1.stream("b").random())
    second_then_first = (r2.stream("b").random(), r2.stream("a").random())
    assert first_then_second[0] == second_then_first[1]
    assert first_then_second[1] == second_then_first[0]


def test_stream_is_cached():
    registry = RngRegistry(3)
    assert registry.stream("x") is registry.stream("x")


def test_named_streams_differ():
    registry = RngRegistry(3)
    assert registry.stream("x").random() != registry.stream("y").random()


def test_fork_is_deterministic_and_distinct():
    root = RngRegistry(5)
    fork_a = root.fork("rep1")
    fork_b = RngRegistry(5).fork("rep1")
    assert fork_a.seed == fork_b.seed
    assert fork_a.seed != root.seed
    assert root.fork("rep2").seed != fork_a.seed
