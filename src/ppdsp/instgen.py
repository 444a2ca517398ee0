"""Seeded instance generation from TSPLIB coordinate samples.

The four generation stages (repetition counts, node pairing, coverage-aware
pair sorting, request synthesis) are deterministic functions of a 64-bit
seed, so equal seeds give byte-identical instances.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass

from .core import Instance, InstanceMeta, LocationGraph, Request, Truck


class ParseError(ValueError):
    pass


class InfeasibleRepetition(ValueError):
    pass


class PairingStalled(RuntimeError):
    pass


# Truck classes cycle in this order until the fleet is full.
TRUCK_CLASSES = ((25, 1.2), (20, 1.0), (15, 0.8))

AVG_VOLUME = 5
DEFAULT_RESHUFFLE_CAP = 10**6


@dataclass(frozen=True)
class TsplibSample:
    name: str
    coords: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if len(self.coords) < 3:
            raise ParseError("TooFewNodes: need at least 3 coordinate rows")


def round_half_up(x: float) -> int:
    return math.floor(x + 0.5)


def num_requests(num_nodes: int, k: float) -> int:
    """n = round(k * (|V|-1) / 2), half-up."""
    return round_half_up(k * (num_nodes - 1) / 2)


class GenRng:
    """Seeded Mersenne Twister with the pinned draw conventions:
    continuous uniform + half-up rounding, and a Fisher-Yates shuffle
    consuming indexes high-to-low."""

    def __init__(self, seed: int):
        self._rng = random.Random(seed)

    def uniform(self, a: float, b: float) -> float:
        return a + (b - a) * self._rng.random()

    def uniform_index(self, a: int, b: int) -> int:
        return round_half_up(self.uniform(a, b))

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = min(int(self._rng.random() * (i + 1)), i)
            items[i], items[j] = items[j], items[i]


def parse_tsplib(text: str, name: str = "") -> TsplibSample:
    """Read the NODE_COORD_SECTION subset of TSPLIB (index x y rows)."""
    lines = text.splitlines()
    header_name = name
    dimension = None
    coord_rows: list[tuple[int, float, float]] = []
    in_section = False
    seen_indexes: set[int] = set()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if not in_section:
            key, _, value = line.partition(":")
            key = key.strip().upper()
            if key == "NAME":
                header_name = value.strip()
            elif key == "DIMENSION":
                try:
                    dimension = int(value.strip())
                except ValueError:
                    raise ParseError(f"line {lineno}: bad DIMENSION value")
            elif key == "NODE_COORD_SECTION":
                in_section = True
            continue
        if line.upper() in ("EOF", "DISPLAY_DATA_SECTION", "EDGE_WEIGHT_SECTION"):
            break
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(f"line {lineno}: expected 'index x y' row")
        try:
            idx = int(parts[0])
            x, y = float(parts[1]), float(parts[2])
        except ValueError:
            raise ParseError(f"line {lineno}: non-numeric coordinate row")
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ParseError(f"line {lineno}: coordinate is not finite")
        if idx in seen_indexes:
            raise ParseError(f"line {lineno}: duplicate node index {idx}")
        seen_indexes.add(idx)
        coord_rows.append((idx, x, y))
    if not in_section:
        raise ParseError("missing NODE_COORD_SECTION")
    if dimension is not None and dimension != len(coord_rows):
        raise ParseError(f"DIMENSION {dimension} disagrees with {len(coord_rows)} rows")
    coords = tuple((x, y) for _, x, y in coord_rows)
    return TsplibSample(name=header_name or "unnamed", coords=coords)


def repetition_counts(num_nondepot: int, n: int, rng: GenRng) -> list[int]:
    """Per-node selection counts: all >= 1, summing to exactly 2n."""
    if 2 * n < num_nondepot:
        raise InfeasibleRepetition(f"2n={2 * n} < {num_nondepot} non-depot nodes")
    counts = [1] * num_nondepot
    total = num_nondepot
    while total < 2 * n:
        i = rng.uniform_index(0, num_nondepot - 1)
        counts[i] += 1
        total += 1
    return counts


def pair_nodes(repetition: list[int], n: int, rng: GenRng,
               reshuffle_cap: int = DEFAULT_RESHUFFLE_CAP) -> list[tuple[int, int]]:
    """Shuffle the count-expanded node list and split it into n ordered
    pickup/dropoff pairs; any degenerate or duplicate pair restarts the
    whole shuffle."""
    if sum(repetition) != 2 * n:
        raise ValueError("repetition counts must sum to 2n")
    shuff_list: list[int] = []
    for node, count in enumerate(repetition):
        shuff_list.extend([node] * count)
    for _ in range(reshuffle_cap):
        rng.shuffle(shuff_list)
        pair_list: list[tuple[int, int]] = []
        for i in range(n):
            pair = (shuff_list[2 * i], shuff_list[2 * i + 1])
            if pair[0] == pair[1] or pair in pair_list:
                break
            pair_list.append(pair)
        else:
            return pair_list
    raise PairingStalled(f"no valid pairing after {reshuffle_cap} reshuffles")


def sort_pairs(repetition: list[int], pair_list: list[tuple[int, int]]
               ) -> tuple[tuple[int, int], ...]:
    """Order pairs so that truncating from the tail keeps every node covered.

    Pairs whose endpoints are both down to their last occurrence go to the
    front of the head; pairs with one last-occurrence endpoint append to the
    head; the rest repeatedly move to the front of the tail by maximum
    current count-sum. A node's count is the number of its pairs not yet
    placed, so every pair left has a positive count sum.
    """
    counts = list(repetition)
    pairs = list(pair_list)
    head: list[tuple[int, int]] = []
    tail: list[tuple[int, int]] = []
    while pairs:
        i = 0
        while i < len(pairs):
            a, b = pairs[i]
            if counts[a] == 1 and counts[b] == 1:
                counts[a] -= 1
                counts[b] -= 1
                head.insert(0, pairs.pop(i))
            elif counts[a] == 1 or counts[b] == 1:
                counts[a] -= 1
                counts[b] -= 1
                head.append(pairs.pop(i))
            else:
                i += 1
        if pairs:
            # the first pair of the largest count sum
            best = max(range(len(pairs)),
                       key=lambda j: counts[pairs[j][0]] + counts[pairs[j][1]])
            a, b = pairs[best]
            counts[a] -= 1
            counts[b] -= 1
            tail.insert(0, pairs.pop(best))
    return tuple(head + tail)


def average_distance(graph: LocationGraph) -> float:
    """Mean Euclidean distance over all ordered distinct node pairs."""
    nv = graph.num_nodes
    # a running total over the rows in order (the 0.0 diagonal adds nothing),
    # not sum(), whose float rounding differs between Python versions
    total = 0.0
    for dist in itertools.chain.from_iterable(graph.distances):
        total += dist
    return total / (nv * (nv - 1))


def make_requests(avg_dist: float, sorted_pairs: tuple[tuple[int, int], ...],
                  n: int, rng: GenRng) -> list[Request]:
    requests = []
    for r in range(n):
        q = round_half_up(rng.uniform(1, 2 * AVG_VOLUME - 1))
        w = round_half_up(2 * avg_dist * q / AVG_VOLUME)
        pickup, dropoff = sorted_pairs[r]
        # pair lists index non-depot nodes from 0; graph ids start after the depot
        requests.append(Request(id=r, w=float(w), q=q,
                                pickup=pickup + 1, dropoff=dropoff + 1))
    return requests


def make_fleet(m: int) -> list[Truck]:
    if m < 1:
        raise ValueError("m must be >= 1")
    trucks = []
    for t in range(m):
        capacity, coefficient = TRUCK_CLASSES[t % len(TRUCK_CLASSES)]
        trucks.append(Truck(id=t, capacity=capacity, cost_coefficient=coefficient))
    return trucks


def first_repeat(values):
    """The first of `values` equal to an earlier one, or None."""
    return next((v for i, v in enumerate(values) if v in values[:i]), None)


def generate_family(sample: TsplibSample, k_list: list[float], m: int, seed: int
                    ) -> dict[float, Instance]:
    """Build one pair family at max(k) and carve each smaller k out of its
    prefix, so the k-instances of one family nest."""
    if not k_list:
        raise ValueError("k_list is empty")
    if not all(math.isfinite(k) for k in k_list):
        raise ValueError("k must be finite")
    # each k draws its own requests, so a second draw would shift later k's
    if (repeated := first_repeat(k_list)) is not None:
        raise ValueError(f"k={repeated:g} is given twice")
    ks = sorted(k_list)
    graph = LocationGraph(coords=sample.coords)
    avg_dist = average_distance(graph)
    if not math.isfinite(avg_dist):  # a request's reward would not be a number
        raise ValueError(f"sample {sample.name}: average distance {avg_dist} "
                         "is not finite")
    num_nondepot = graph.num_nodes - 1
    k_max = ks[-1]
    n_max = num_requests(graph.num_nodes, k_max)
    if n_max < 1:
        raise ValueError("n must be >= 1")
    num_pairs = num_nondepot * (num_nondepot - 1)
    if n_max > num_pairs:
        raise ValueError(f"n={n_max} exceeds the {num_pairs} distinct ordered "
                         "pairs of non-depot nodes")

    rng = GenRng(seed)
    counts = repetition_counts(num_nondepot, n_max, rng)
    pairs = pair_nodes(counts, n_max, rng)
    sorted_pairs = sort_pairs(counts, pairs)

    out: dict[float, Instance] = {}
    for k in ks:
        n = num_requests(graph.num_nodes, k)
        requests = make_requests(avg_dist, sorted_pairs, n, rng)
        trucks = make_fleet(m)
        meta = InstanceMeta(sample=sample.name, k=k, m=m, n=n, seed=seed)
        out[k] = Instance(graph=graph, requests=tuple(requests),
                          trucks=tuple(trucks), meta=meta)
    return out


def grid_instance(nv: int, n: int, m: int) -> Instance:
    """Cheap structurally-valid instance for census checks only: nv nodes on
    a line, n unit requests cycling over the non-depot nodes, m trucks."""
    coords = tuple((float(i), 0.0) for i in range(nv))
    requests = tuple(Request(id=i, w=1.0, q=1, pickup=1 + i % (nv - 1),
                             dropoff=1 + (i + 1) % (nv - 1)) for i in range(n))
    trucks = tuple(Truck(id=t, capacity=25, cost_coefficient=1.0)
                   for t in range(m))
    return Instance(graph=LocationGraph(coords=coords), requests=requests,
                    trucks=trucks,
                    meta=InstanceMeta(sample="grid", k=0.0, m=m, n=n, seed=0))


# --- canonical instance text form ---------------------------------------

def _fmt_float(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return f"{x:.1f}"
    return format(x, ".17g")


def _emit_json(value, out: list[str], indent: int) -> None:
    pad = "  " * indent
    if isinstance(value, dict):
        out.append("{\n")
        items = list(value.items())
        for i, (key, v) in enumerate(items):
            out.append(f'{pad}  "{key}": ')
            _emit_json(v, out, indent + 1)
            out.append(",\n" if i < len(items) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(value, (list, tuple)):
        out.append("[")
        for i, v in enumerate(value):
            _emit_json(v, out, indent)
            if i < len(value) - 1:
                out.append(", ")
        out.append("]")
    elif isinstance(value, float):
        out.append(_fmt_float(value))
    else:
        out.append(json.dumps(value))


def serialize_instance(instance: Instance) -> str:
    doc = {
        "meta": {
            "sample": instance.meta.sample,
            "k": float(instance.meta.k),
            "m": instance.meta.m,
            "n": instance.meta.n,
            "seed": instance.meta.seed,
        },
        "locations": [
            {"id": i, "x": float(x), "y": float(y)}
            for i, (x, y) in enumerate(instance.graph.coords)
        ],
        "requests": [
            {"id": r.id, "w": float(r.w), "q": r.q,
             "pickup": r.pickup, "dropoff": r.dropoff}
            for r in instance.requests
        ],
        "trucks": [
            _truck_doc(t) for t in instance.trucks
        ],
    }
    out: list[str] = []
    _emit_json(doc, out, 0)
    out.append("\n")
    return "".join(out)


def _truck_doc(t: Truck) -> dict:
    doc = {"id": t.id, "capacity": t.capacity, "coefficient": float(t.cost_coefficient)}
    if t.cost_matrix is not None:
        doc["costs"] = [[float(c) for c in row] for row in t.cost_matrix]
    return doc


def json_int(value, key: str) -> int:
    """value, read from a JSON document's `key`, refused unless it is a JSON
    integer: a number with a fraction, a bool or a string is not one."""
    if type(value) is not int:  # a bool is an int too
        raise ValueError(f"{key!r} must be an integer, not {value!r}")
    return value


def json_number(value, key: str) -> float:
    """value, read from a JSON document's `key`, as a float, refused unless
    it is a finite JSON integer or float: Infinity, NaN, a bool or a string
    is not one."""
    if type(value) not in (int, float) or not math.isfinite(value):
        raise ValueError(f"{key!r} must be a finite number, not {value!r}")
    return float(value)


def parse_instance(text: str) -> Instance:
    """The instance that serialize_instance wrote as `text`. Any malformed
    part raises ParseError, naming the $.path of the object it is in."""
    path = "$"
    try:
        doc = json.loads(text)
        meta_doc = doc["meta"]
        path = "$.meta"
        meta = InstanceMeta(sample=meta_doc["sample"],
                            k=json_number(meta_doc["k"], "k"),
                            m=json_int(meta_doc["m"], "m"),
                            n=json_int(meta_doc["n"], "n"),
                            seed=json_int(meta_doc["seed"], "seed"))
        path = "$"
        coords = []
        for i, loc in enumerate(doc["locations"]):
            path = f"$.locations[{i}]"
            if json_int(loc["id"], "id") != i:
                raise ValueError("ids must be 0..|V|-1 in order")
            coords.append((json_number(loc["x"], "x"), json_number(loc["y"], "y")))
        path = "$.locations"
        graph = LocationGraph(coords=tuple(coords))
        path = "$"
        requests = []
        for i, rd in enumerate(doc["requests"]):
            path = f"$.requests[{i}]"
            requests.append(Request(id=json_int(rd["id"], "id"),
                                    w=json_number(rd["w"], "w"),
                                    q=json_int(rd["q"], "q"),
                                    pickup=json_int(rd["pickup"], "pickup"),
                                    dropoff=json_int(rd["dropoff"], "dropoff")))
        path = "$"
        trucks = []
        for i, td in enumerate(doc["trucks"]):
            path = f"$.trucks[{i}]"
            matrix = (tuple(tuple(json_number(c, "costs") for c in row)
                            for row in td["costs"]) if "costs" in td else None)
            trucks.append(Truck(id=json_int(td["id"], "id"),
                                capacity=json_int(td["capacity"], "capacity"),
                                cost_coefficient=json_number(td["coefficient"],
                                                             "coefficient"),
                                cost_matrix=matrix))
        path = "$"
        return Instance(graph=graph, requests=tuple(requests),
                        trucks=tuple(trucks), meta=meta)
    except json.JSONDecodeError as exc:
        raise ParseError(f"instance text is not valid JSON: {exc}") from exc
    except KeyError as exc:
        raise ParseError(f"{path}: missing field {exc}") from exc
    except (ValueError, TypeError, OverflowError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
