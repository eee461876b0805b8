import random

import pytest

from privkg.synthetic import make_synthetic_kg
from . import _synthetic_reference

# a seeded sample of n_entities 1-60, n_communities 1-12, n_relations 0-4,
# n_attributes 0-3, values_per_pool 1-5, edges_per_relation 0-4, with a seed each
_rng = random.Random(19)
GRID = [(_rng.randint(1, 60), _rng.randint(1, 12), _rng.randint(0, 4), _rng.randint(0, 3),
         _rng.randint(1, 5), _rng.randint(0, 4), seed) for seed in range(300)]
# the graphs of perfbench's train-gqe, eval-q2b and build-4k workloads
WORKLOADS = [(230, 6, 6, 3, 4, 1, 7), (2000, 52, 6, 3, 4, 1, 7), (4000, 104, 6, 3, 4, 1, 7)]


def _assert_same_graph(args):
    new, old = make_synthetic_kg(*args), _synthetic_reference.make_synthetic_kg(*args)
    assert new.vertex_names == old.vertex_names, args
    assert new.relations == old.relations, args
    assert new.triples == old.triples, args


def test_generator_matches_the_name_list_reference_over_a_seeded_grid():
    for args in GRID:
        _assert_same_graph(args)


@pytest.mark.parametrize("args", WORKLOADS, ids=lambda a: "%d_entities" % a[0])
def test_generator_matches_the_name_list_reference_on_the_workload_graphs(args):
    _assert_same_graph(args)


@pytest.mark.parametrize("name, value", [
    ("n_entities", 0), ("n_entities", -3), ("n_communities", 0), ("n_relations", -1),
    ("n_attributes", -1), ("values_per_pool", 0), ("edges_per_relation", -1),
])
def test_bad_arguments_are_refused_by_name(name, value):
    with pytest.raises(ValueError, match=r"^%s must be at least \d, got %d$" % (name, value)):
        make_synthetic_kg(**{name: value})
