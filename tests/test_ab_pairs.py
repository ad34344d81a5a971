"""``benchmarks/ab_pairs.py --hold``: the comparison that fails a perf claim
when a count it named as unmoved moved (no benchmark run needed)."""

from benchmarks.ab_pairs import held_counts


def traced(**counts):
    return {"metrics": {name.replace("__", "."): {"value": value} for name, value in counts.items()}}


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
