from cdx.memo import Memo


def test_lookup_computes_each_key_once():
    calls = []

    def compute(a, b):
        calls.append((a, b))
        return [a + b]

    table = Memo(compute)
    first = table.lookup((1, 2))
    assert first == [3]
    assert table.lookup((1, 2)) is first
    assert calls == [(1, 2)]


def test_put_keeps_the_first_value_and_snapshot_is_a_copy():
    table = Memo(lambda a: [a])
    kept = [0]
    assert table.put((1,), kept) is kept
    assert table.put((1,), [9]) is kept
    assert table.lookup((1,)) is kept
    snap = table.snapshot()
    snap.clear()
    assert table.snapshot() == {(1,): [0]}
    table.clear()
    assert table.snapshot() == {}


def test_get_reads_the_table_and_computes_nothing():
    calls = []
    table = Memo(lambda a: calls.append(a) or [a])
    assert table.get((1,)) is None and calls == []
    got = table.lookup((1,))
    assert table.get((1,)) is got and calls == [1]
    table.clear()
    assert table.get((1,)) is None
    assert table.lookup((1,)) is table.get((1,)) and calls == [1, 1]
