import itertools
import json
import random

import pytest
from hypothesis import given, strategies as st

from maxkcut.graph import Graph
from maxkcut.partition import (
    Partition,
    evaluate,
    random_initial,
    solution_from_json,
    solution_from_text,
    solution_to_json,
    solution_to_text,
    validate,
)

from conftest import brute_objective, random_graph


def test_random_initial_no_empty_subset():
    g = Graph.from_edges(5, [])
    for seed in range(20):
        p = random_initial(g, 3, random.Random(seed))
        assert len(p.assign) == 5
        assert sorted(set(p.assign)) == [0, 1, 2]


def test_random_initial_pigeonhole():
    g = Graph.from_edges(3, [])
    p = random_initial(g, 3, random.Random(7))
    assert sorted(p.assign) == [0, 1, 2]


def test_random_initial_k_out_of_range():
    g = Graph.from_edges(2, [])
    with pytest.raises(ValueError):
        random_initial(g, 3, random.Random(0))
    with pytest.raises(ValueError):
        random_initial(g, 1, random.Random(0))


def test_evaluate_triangle(triangle):
    assert evaluate(triangle, Partition(k=2, assign=[0, 0, 1])) == 5
    assert evaluate(triangle, Partition(k=3, assign=[0, 1, 2])) == 6


def test_evaluate_edgeless():
    g = Graph.from_edges(4, [])
    assert evaluate(g, Partition(k=2, assign=[0, 1, 0, 1])) == 0


def test_validate_ok(triangle):
    report = validate(triangle, Partition(k=2, assign=[0, 0, 1]))
    assert report.ok and not report.warnings


def test_validate_empty_subset_is_warning(triangle):
    report = validate(triangle, Partition(k=3, assign=[0, 0, 1]))
    assert report.ok
    assert any("empty subset" in w for w in report.warnings)


def test_validate_out_of_range(triangle):
    report = validate(triangle, Partition(k=2, assign=[0, 0, 5]))
    assert not report.ok


@pytest.mark.parametrize("k", [1, 0, -1])
def test_validate_k_below_two(triangle, k):
    report = validate(triangle, Partition(k=k, assign=[0, 0, 0]))
    assert not report.ok
    assert report.errors == [f"k must be >= 2, got k={k}"]


@pytest.mark.parametrize("field,value", [
    ("k", 2.0), ("k", True), ("objective", "5"), ("assign", [0, 0, 1.0]),
    ("assign", [0, 0, True]),
], ids=["k-float", "k-bool", "objective-string", "assign-float", "assign-bool"])
def test_solution_from_json_rejects_non_integers(field, value):
    doc = {"instance": "tri", "k": 2, "objective": 5, "assign": [0, 0, 1]}
    doc[field] = value
    with pytest.raises(ValueError, match=f"field {field} must be an integer"):
        solution_from_json(json.dumps(doc))


@given(st.integers(min_value=0, max_value=2**31))
def test_evaluate_label_permutation_invariant(seed):
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(2, 8), 0.5)
    k = rng.randint(2, 4)
    assign = [rng.randrange(k) for _ in range(g.n)]
    perm = list(range(k))
    rng.shuffle(perm)
    p1 = Partition(k=k, assign=assign)
    p2 = Partition(k=k, assign=[perm[s] for s in assign])
    assert evaluate(g, p1) == evaluate(g, p2)


def test_all_distinct_subsets_cuts_everything():
    rng = random.Random(3)
    g = random_graph(rng, 6, 0.7)
    p = Partition(k=6, assign=list(range(6)))
    assert evaluate(g, p) == sum(w for _, _, w in g.edges)


def test_crossing_plus_internal_is_total():
    rng = random.Random(4)
    g = random_graph(rng, 7, 0.6)
    assign = [rng.randrange(3) for _ in range(7)]
    p = Partition(k=3, assign=assign)
    internal = sum(w for u, v, w in g.edges if assign[u] == assign[v])
    assert evaluate(g, p) + internal == sum(w for _, _, w in g.edges)


def test_solution_json_roundtrip(triangle):
    p = Partition(k=2, assign=[0, 0, 1])
    doc = solution_to_json("tri", triangle, p)
    instance, k, objective, assign = solution_from_json(doc)
    assert (instance, k, objective, assign) == ("tri", 2, 5, [0, 0, 1])


def test_solution_text_roundtrip():
    p = Partition(k=3, assign=[2, 0, 1, 1])
    assert solution_from_text(solution_to_text(p)) == [2, 0, 1, 1]
