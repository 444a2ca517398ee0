"""Shared fixtures: the hand-built three-request golden instance, the
TSPLIB coordinate fixtures, a solver adapter wired to the bundled backend,
and a deterministic random-instance factory sized for the oracle."""

import os
import random
import sys
from types import SimpleNamespace

import pytest

from ppdsp.core import Instance, InstanceMeta, LocationGraph, Request, Truck
from ppdsp.harness import SolverAdapter
from ppdsp.instgen import parse_instance, parse_tsplib

DATA_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "data")


def data_path(name: str) -> str:
    return os.path.abspath(os.path.join(DATA_DIR, name))


@pytest.fixture(scope="session")
def golden_instance() -> Instance:
    with open(data_path("threereq.instance")) as fh:
        return parse_instance(fh.read())


@pytest.fixture(scope="session")
def burma14():
    with open(data_path("burma14.tsp")) as fh:
        return parse_tsplib(fh.read(), name="burma14")


@pytest.fixture(scope="session")
def ulysses16():
    with open(data_path("ulysses16.tsp")) as fh:
        return parse_tsplib(fh.read(), name="ulysses16")


@pytest.fixture(scope="session")
def ulysses22():
    with open(data_path("ulysses22.tsp")) as fh:
        return parse_tsplib(fh.read(), name="ulysses22")


@pytest.fixture(scope="session")
def highs_adapter() -> SolverAdapter:
    return SolverAdapter(
        command_template=(f"{sys.executable} -m ppdsp.highs_solver "
                          "{model_path} {solution_path} {time_limit_s}"))


def columns_of(model, name: str) -> SimpleNamespace:
    """A model's variable or, failing that, row called name, read from the
    model's columns: kind, lower, upper and objective for a variable; sense
    and rhs for a row."""
    if name in model.names:
        j = model.names.index(name)
        return SimpleNamespace(kind=model.kinds[j], lower=model.lowers[j],
                               upper=model.uppers[j], objective=model.objective[j])
    i = model.row_names.index(name)
    return SimpleNamespace(sense=model.senses[i], rhs=model.rhs[i])


def small_random_instance(seed: int) -> Instance:
    """Oracle-sized random instance: |V| in {5,6}, 2..4 requests, 2 trucks."""
    rng = random.Random(seed)
    nv = rng.choice([5, 6])
    coords = tuple((rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(nv))
    n = rng.randint(2, 4)
    requests = []
    for i in range(n):
        pickup, dropoff = rng.sample(range(1, nv), 2)
        requests.append(Request(id=i, w=rng.randint(3, 20), q=rng.randint(1, 5),
                                pickup=pickup, dropoff=dropoff))
    trucks = tuple(Truck(id=t, capacity=rng.randint(3, 8),
                         cost_coefficient=rng.choice([0.8, 1.0, 1.2]))
                   for t in range(2))
    meta = InstanceMeta(sample=f"rand{seed}", k=1.0, m=2, n=n, seed=seed)
    return Instance(graph=LocationGraph(coords=coords), requests=tuple(requests),
                    trucks=trucks, meta=meta)
