"""The column checker against the object-based reference (``checker_reference``).

For generated trees — every policy ``make_policy`` builds, page sizes 256 to
1024, int and str keys, transactions left open, nodes reopened from their
images and then mutated — with one index page corrupted in its image (a key
bound reference, a time word, a tier byte, a child page id, or a dropped
entry), ``check_tree`` must report exactly what the reference reports, as
sorted ``str`` lists.  ``TestColumnCheckerFull`` is the property at the
nightly Hypothesis budget; ``TestColumnCheckerSmoke`` is a small fixed-seed
run of it in tier-1.
"""

import random
import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import check_tree
from repro.core.nodes import _HISTORICAL_CHILD, _INDEX_HEADER, _NO_HIGH, _U64_MAX, IndexNode, _keys_at
from tests.core import checker_reference
from tests.core.test_split_columns import POLICIES, build_tree

CORRUPTIONS = ("none", "bound", "time", "tier", "page", "drop")


def corrupt(tree, kind, rng):
    """Rewrite one current index node's page image with one ``kind`` of
    damage and make the decoded image that page's resident."""
    victims = sorted(
        (node for node in tree.index_nodes() if node.address.is_magnetic),
        key=lambda node: node.address.page_id,
    )
    if kind == "none" or not victims:
        return
    node = rng.choice(victims)
    image = bytearray(node.encode())
    _tag, key_kind, _level, count, distinct = _INDEX_HEADER.unpack_from(image)[:5]
    at = _keys_at(bytes(image), _INDEX_HEADER.size, distinct, key_kind)[1]
    runs = {"low": at, "high": at + 2 * count, "start": at + 4 * count,
            "end": at + 12 * count, "page": at + 20 * count, "tier": at + 28 * count}  # fmt: skip
    slot = rng.randrange(count)
    words = [
        *struct.unpack_from(f">{count}Q", image, runs["start"]),
        *struct.unpack_from(f">{count}Q", image, runs["end"]),
    ]
    if kind in ("bound", "time", "page"):
        # A new value for one field of the slot: a well-formed one (a key
        # bound refers into the table; only an end may be open).
        field = {"bound": ("low", "high"), "time": ("start", "end"), "page": ("page",)}[kind]
        field = rng.choice(field)
        code, width = (">H", 2) if kind == "bound" else (">Q", 8)
        if field == "low":
            choices = range(distinct + 1)
        elif field == "high":
            choices = [*range(1, distinct + 1), _NO_HIGH]
        elif field == "page":
            choices = [*struct.unpack_from(f">{count}Q", image, runs["page"]), 1, 2, 987654]
        else:
            choices = {word + step for word in words if word != _U64_MAX for step in (-1, 0, 1)}
            choices = {word for word in choices if word >= 0} | ({_U64_MAX} if field == "end" else set())
        old = struct.unpack_from(code, image, runs[field] + width * slot)[0]
        choices = sorted(set(choices) - {old})
        if choices:
            struct.pack_into(code, image, runs[field] + width * slot, rng.choice(choices))
    else:
        tiers = image[runs["tier"] : runs["tier"] + count]
        triple = at + 29 * count + _HISTORICAL_CHILD.size * tiers.count(1, 0, slot)
        if kind == "tier":
            image[runs["tier"] + slot] ^= 1
            if tiers[slot]:
                del image[triple : triple + _HISTORICAL_CHILD.size]
            else:
                image[triple:triple] = _HISTORICAL_CHILD.pack(0, 64, 0)
        else:  # drop the slot from every run, back to front
            if tiers[slot]:
                del image[triple : triple + _HISTORICAL_CHILD.size]
            for field, width in (("tier", 1), ("page", 8), ("end", 8), ("start", 8),
                                 ("high", 2), ("low", 2)):  # fmt: skip
                del image[runs[field] + width * slot : runs[field] + width * (slot + 1)]
            struct.pack_into(">I", image, 4, count - 1)
    tree.cache.write(node.address, IndexNode.decode(node.address, bytes(image)))


@st.composite
def corrupted_trees(draw):
    as_key = int if draw(st.booleans()) else (lambda at: f"k{at:03d}")
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    tree = build_tree(
        policy=draw(st.integers(0, len(POLICIES) - 1)),
        page_size=draw(st.integers(256, 1024)),
        as_key=as_key,
        operations=draw(st.integers(100, 500)),
        reopen=draw(st.booleans()),
        cache_pages=draw(st.sampled_from([2, 16, 128])),
        rng=rng,
    )
    assert checker_reference.check_tree(tree) == []
    corrupt(tree, rng.choice(CORRUPTIONS), rng)
    return tree


def assert_checkers_agree(tree):
    expected = sorted(map(str, checker_reference.check_tree(tree)))
    assert sorted(map(str, check_tree(tree))) == expected


@pytest.mark.slow
@pytest.mark.differential
class TestColumnCheckerFull:
    @given(tree=corrupted_trees())
    @settings(suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    def test_column_checker_matches_the_object_reference(self, tree):
        assert_checkers_agree(tree)


@pytest.mark.differential
class TestColumnCheckerSmoke:
    @given(tree=corrupted_trees())
    @settings(
        max_examples=60,
        derandomize=True,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    def test_column_checker_matches_the_object_reference(self, tree):
        assert_checkers_agree(tree)
