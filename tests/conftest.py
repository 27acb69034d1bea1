"""Shared corpora, and a counter of kernel runs.

The catalogs are one representative per isomorphism class; class counts
are pinned against the known sequences in test_catalog. Random corpora
use fixed seed schedules so every run sees the same graphs. The
benchmark's sparse corpus and reference answers are loaded from
perfbench by path, unedited.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from powerdom import graph
from powerdom.catalog import connected_graphs, nonisomorphic_graphs
from powerdom.families import gen_random_connected, gen_random_tree

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="session")
def catalog_all_8():
    """Every graph (up to isomorphism) with 1 <= n <= 8, disconnected included."""
    return [g for n in range(1, 9) for g in nonisomorphic_graphs(n)]


@pytest.fixture(scope="session")
def catalog_conn_8():
    return [g for n in range(1, 9) for g in connected_graphs(n)]


def connected_corpus_schedule(count=500):
    for seed in range(count):
        n = 2 + seed % 11
        max_m = n * (n - 1) // 2
        m = (n - 1) + (seed * 37) % (max_m - (n - 1) + 1)
        yield n, m, seed


@pytest.fixture(scope="session")
def random_connected_500():
    """500 seeded connected graphs, 2 <= n <= 12."""
    return [gen_random_connected(n, m, seed) for n, m, seed in connected_corpus_schedule()]


def tree_corpus_schedule(count=200):
    for seed in range(count):
        yield 3 + seed % 14, seed


@pytest.fixture(scope="session")
def random_trees_200():
    """200 seeded random trees, 3 <= n <= 16."""
    return [gen_random_tree(n, seed) for n, seed in tree_corpus_schedule()]


@pytest.fixture(scope="session")
def perfbench_sparse():
    """perfbench's workloads module and its reference answers for the sparse pools."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    ref = json.loads((PERFBENCH / "reference.json").read_text())["sparse"]
    return workloads, ref


@pytest.fixture
def kernel_runs(monkeypatch):
    """The start mask of every fixed_point call on graphs built from now."""
    real = graph.PropagationCore
    runs = []

    class CountingCore:
        def __init__(self, adj_masks, n):
            self._core = real(adj_masks, n)

        def fixed_point(self, start):
            runs.append(start)
            return self._core.fixed_point(start)

        def layer_masks(self, start):
            return self._core.layer_masks(start)

    monkeypatch.setattr(graph, "PropagationCore", CountingCore)
    return runs
