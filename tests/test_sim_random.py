"""Unit tests for named RNG streams."""

from repro.sim import RandomStreams


def test_named_streams_are_deterministic_and_independent():
    a = RandomStreams(7)
    b = RandomStreams(7)
    assert [a.stream("x").random() for _ in range(5)] == \
        [b.stream("x").random() for _ in range(5)]
    # Different names give different sequences.
    assert a.stream("y").random() != b.stream("x").random()


def test_stream_instance_is_cached():
    streams = RandomStreams(1)
    assert streams.stream("n") is streams.stream("n")


def test_adding_consumers_does_not_perturb_existing_streams():
    a = RandomStreams(3)
    first = a.stream("alpha").random()
    b = RandomStreams(3)
    b.stream("zzz")                      # extra consumer created first
    assert b.stream("alpha").random() == first


def test_fork_derives_reproducible_children():
    a = RandomStreams(9).fork("child")
    b = RandomStreams(9).fork("child")
    assert a.stream("s").random() == b.stream("s").random()
    assert a.seed != 9
