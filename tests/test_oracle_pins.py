"""The exhaustive oracle's answers, pinned exactly.

`oracle_pins.json` holds, for the golden fixture and criterion 4's random
instances (seeds 0-19), the oracle's value (its exact `repr`) and plans
(truck, sorted delivery, route) under location/strict, location/netted and
request semantics, plus the golden fixture's full `enumerate_xi` list. Any
change to the oracle's search must reproduce every pin: the values, and the
tie-break that picks one plan among equal-valued ones.

Print the pins of the code as it stands with

    PYTHONPATH=src python tests/test_oracle_pins.py > tests/oracle_pins.json
"""

import json
import os

import pytest

from conftest import data_path, small_random_instance
from ppdsp.harness import enumerate_xi, oracle
from ppdsp.instgen import parse_instance

PINS_PATH = os.path.join(os.path.dirname(__file__), "oracle_pins.json")
RULES = (("location", "strict"), ("location", "netted"), ("request", "strict"))
NAMES = ["golden"] + [f"seed{seed}" for seed in range(20)]


def _instance(name):
    if name == "golden":
        with open(data_path("threereq.instance")) as fh:
            return parse_instance(fh.read())
    return small_random_instance(int(name[len("seed"):]))


def _plans(solution):
    return [[p.truck_id, sorted(p.delivery), list(p.route)] for p in solution.plans]


def _oracle_pin(instance, semantics, rule):
    value, solution = oracle(instance, semantics, capacity_rule=rule)
    return {"value": repr(value), "plans": _plans(solution)}


def _enumerate_pin(instance):
    return [{"value": repr(value), "plans": _plans(solution)}
            for solution, value in enumerate_xi(instance)]


def current_pins():
    pins = {f"{name}/{semantics}/{rule}": _oracle_pin(_instance(name), semantics, rule)
            for name in NAMES for semantics, rule in RULES}
    pins["golden/enumerate_xi"] = _enumerate_pin(_instance("golden"))
    return pins


@pytest.fixture(scope="module")
def pins():
    with open(PINS_PATH) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("semantics, rule", RULES)
def test_oracle_matches_pin(pins, name, semantics, rule):
    assert (_oracle_pin(_instance(name), semantics, rule)
            == pins[f"{name}/{semantics}/{rule}"])


def test_enumerate_xi_matches_pin(pins, golden_instance):
    assert _enumerate_pin(golden_instance) == pins["golden/enumerate_xi"]


if __name__ == "__main__":
    print("{\n" + ",\n".join(f"{json.dumps(key)}: {json.dumps(pin)}"
                              for key, pin in current_pins().items()) + "\n}")
