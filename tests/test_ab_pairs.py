"""``benchmarks/ab_pairs.py --traced``: the comparison that fails a perf
claim when a count it named as unmoved (``--hold``) moved, and the list of
every count that moved (no benchmark run needed)."""

from benchmarks.ab_pairs import held_counts, moved_counts


def traced(unit="count", **counts):
    return {
        "metrics": {
            name.replace("__", "."): {"value": value, "unit": unit}
            for name, value in counts.items()
        }
    }


def test_every_moved_count_is_listed_with_both_values():
    parent = traced(
        core__tsb_tree__data_time_splits=1765,
        core__tsb_tree__redundant_versions_written=5210,
        storage__pagecache__calls=51926,
        txn__commits=2994,
        only__parent=3,
    )
    change = traced(
        core__tsb_tree__data_time_splits=1771,
        core__tsb_tree__redundant_versions_written=5210,
        storage__pagecache__calls=38129,
        txn__commits=2994,
        only__change=0,
    )
    for result, self_s in ((parent, 0.5), (change, 0.4)):  # not a count: never listed
        result["metrics"]["txn.self_s"] = {"value": self_s, "unit": "s"}
    assert moved_counts(parent, change) == {
        "core.tsb_tree.data_time_splits": {"parent": 1765, "change": 1771},
        "only.change": {"parent": None, "change": 0},
        "only.parent": {"parent": 3, "change": None},
        "storage.pagecache.calls": {"parent": 51926, "change": 38129},
    }
    assert moved_counts(parent, parent) == {}


def test_equal_counts_are_held_and_reported_for_both_sides():
    parent = traced(storage__worm__reads=14590, core__tsb_tree__nodes_read_per_lookup=7.76)
    change = traced(storage__worm__reads=14590, core__tsb_tree__nodes_read_per_lookup=7.76)
    held, moved = held_counts(
        ["storage.worm.reads", "core.tsb_tree.nodes_read_per_lookup"], parent, change
    )
    assert moved == []
    assert held["storage.worm.reads"] == {"parent": 14590, "change": 14590}
    assert held["core.tsb_tree.nodes_read_per_lookup"] == {"parent": 7.76, "change": 7.76}


def test_a_count_that_differs_or_is_missing_on_either_side_has_moved():
    parent = traced(a__count=5, b__count=0, only__parent=1)
    change = traced(a__count=6, b__count=0, only__change=1)
    names = ["a.count", "b.count", "only.parent", "only.change", "nowhere"]
    held, moved = held_counts(names, parent, change)
    assert moved == ["a.count", "only.parent", "only.change", "nowhere"]
    assert held["a.count"] == {"parent": 5, "change": 6}
    assert held["b.count"] == {"parent": 0, "change": 0}  # a zero is a value, not an absence
    assert held["only.parent"] == {"parent": 1, "change": None}
