import itertools
import random

import pytest

from maxkcut.graph import Graph, triples
from maxkcut.oracle import OracleGuardError, exact_max_kcut
from maxkcut.partition import evaluate

from conftest import brute_objective, random_graph


def plain_enumeration(g, k):
    """Unpruned k^n enumeration, the independent reference."""
    best = None
    for assign in itertools.product(range(k), repeat=g.n):
        val = brute_objective(g, assign)
        if best is None or val > best:
            best = val
    return best


def test_triangle(triangle):
    opt2, p2 = exact_max_kcut(triangle, 2)
    assert opt2 == 5
    assert evaluate(triangle, p2) == 5
    opt3, _ = exact_max_kcut(triangle, 3)
    assert opt3 == 6  # all edges cut


def test_square4(square4):
    opt, p = exact_max_kcut(square4, 2)
    assert opt == 10
    assert evaluate(square4, p) == 10


def test_matches_plain_enumeration():
    rng = random.Random(6)
    for _ in range(15):
        g = random_graph(rng, rng.randint(2, 7), 0.6)
        k = rng.randint(2, 4)
        assert exact_max_kcut(g, k)[0] == plain_enumeration(g, k)


def test_invariant_under_vertex_reordering():
    rng = random.Random(8)
    g = random_graph(rng, 7, 0.5)
    perm = list(range(7))
    rng.shuffle(perm)
    remapped = Graph.from_edges(7, [(perm[u], perm[v], w) for u, v, w in triples(g.edges)])
    for k in (2, 3):
        assert exact_max_kcut(g, k)[0] == exact_max_kcut(remapped, k)[0]


def test_monotone_in_k():
    rng = random.Random(9)
    for _ in range(10):
        g = random_graph(rng, rng.randint(2, 7), 0.6)
        vals = [exact_max_kcut(g, k)[0] for k in (2, 3, 4)]
        assert vals[0] <= vals[1] <= vals[2]


def test_guard():
    g = Graph.from_edges(20, [(0, 1, 1)])
    with pytest.raises(OracleGuardError):
        exact_max_kcut(g, 2)
    # override works
    opt, _ = exact_max_kcut(g, 2, force=True)
    assert opt == 1


@pytest.mark.parametrize("n,k,exceeded", [
    (17, 2, "n=17 > max_n=16"),
    (3, 5, "k=5 > max_k=4"),
    (17, 5, "n=17 > max_n=16 and k=5 > max_k=4"),
])
def test_guard_names_only_the_exceeded_bounds(n, k, exceeded):
    with pytest.raises(OracleGuardError) as info:
        exact_max_kcut(Graph.from_edges(n, []), k)
    assert str(info.value) == f"instance too large for exhaustive search: {exceeded}"


def test_empty_graph_optimum_is_zero():
    opt, p = exact_max_kcut(Graph.from_edges(0, []), 3)
    assert opt == 0
    assert p.k == 3 and p.assign == []


def test_witness_is_consistent():
    rng = random.Random(10)
    g = random_graph(rng, 8, 0.5)
    opt, p = exact_max_kcut(g, 3)
    assert evaluate(g, p) == opt
