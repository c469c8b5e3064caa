"""The benchmark's own checks: the oracle, and the recorded search counts.

    python3 -m pytest perfbench/test_perfbench.py -q

The small queries must reproduce their pinned value, witness, node and
prune counts exactly.  A change to the search that moves a count fails here
first; update the pinned record in workloads.py in that change and say so.
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import zerosum  # noqa: E402
from oracle import parse_terms, witness_error, zero_sum_subset  # noqa: E402
from workloads import (  # noqa: E402
    LADDER, PARTITIONED, QUERIES, Checks, SearchWorkload, answer_error, bundled_cross_check,
    solve,
)

SMALL = ("c3x3x3-dav", "c2x10-dav", "c3x3x3-l3.6-sym", "c3x3x3-leq3-sym")


@pytest.mark.parametrize("name", SMALL)
def test_small_query_reproduces_record(name):
    q = QUERIES[name]
    result = solve(zerosum, q, zerosum.SearchConfig(symmetry_reduction=q.symmetry))
    assert (result.value, str(result.witness), result.stats.nodes, result.stats.pruned) == (
        q.value, q.witness, q.nodes, q.pruned)
    assert answer_error(q, result) is None


def test_pinned_values_meet_the_bundled_c3x3x3_rows():
    checks = Checks()
    # s_<=3, s_<=4, D and s_{2 exp} of C3^3.
    assert bundled_cross_check(zerosum, LADDER, checks) == 4
    assert checks.failures == []


def test_moved_node_counts_are_reported():
    ladder = SearchWorkload(zerosum, LADDER, partitioned=False)
    records = [{"query": "c2x10-dav", "nodes": 24643}, {"query": "c5x5-dav", "nodes": 1}]
    assert ladder.count_notes(records) == ["nodes moved from the record: c5x5-dav 138865 -> 1"]
    split = SearchWorkload(zerosum, PARTITIONED, partitioned=True)
    assert split.count_notes([{"query": "c3x3x3-leq4", "nodes": 422215}]) == []


def test_every_pinned_witness_passes_the_oracle():
    for name in set(LADDER) | set(PARTITIONED):
        q = QUERIES[name]
        assert witness_error(q.factors, q.witness, q.value, q.lengths()) is None, name


def test_oracle_rejects_bad_witnesses():
    q = QUERIES["c3x3x3-dav"]
    assert "length" in witness_error(q.factors, q.witness, q.value + 1, q.lengths())
    # 1,1,1 three times sums to zero.
    assert "zero-sum" in witness_error((3, 3, 3), "1,1,1^3; 0,0,1^3", 7, range(1, 7))
    assert "not an element" in witness_error((3, 3, 3), "0,0,3^6", 7, range(1, 7))


def test_oracle_parses_and_finds_zero_sums():
    assert parse_terms("0,1^2; 1,0") == [(0, 1), (0, 1), (1, 0)]
    assert zero_sum_subset((5,), [(1,), (2,), (2,)], [3]) == (0, 1, 2)
    assert zero_sum_subset((5,), [(1,), (2,)], range(1, 3)) is None
