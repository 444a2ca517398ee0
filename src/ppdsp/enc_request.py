"""Request-based MIP encoder: every request gets its own pickup node and
dropoff node, plus start/end depot copies at the same physical spot.

Node layout for n requests (N = 2n+2 nodes total):
  0        start depot
  1..n     pickup of request id v-1
  n+1..2n  dropoff of request id v-n-1
  2n+1     end depot
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain, groupby
from operator import sub

from .core import DeliveryRoutingSolution, Instance, LocationGraph, TruckPlan
# the variable names and the decode steps are those of the location model
from .enc_location import arc_layout, arc_successors, h_name, u_name, walk
from .mipir import MipModel, ModelBuilder, Sense, VarKind


@dataclass(frozen=True)
class RequestGraphMap:
    """Duplicated-node table: per node its source location and signed volume."""

    num_requests: int
    location_of: tuple[int, ...]
    volume_of: tuple[int, ...]

    @property
    def num_nodes(self) -> int:
        return 2 * self.num_requests + 2

    def is_pickup(self, v: int) -> bool:
        return 1 <= v <= self.num_requests

    def is_dropoff(self, v: int) -> bool:
        return self.num_requests + 1 <= v <= 2 * self.num_requests

    def request_of(self, v: int) -> int:
        if self.is_pickup(v):
            return v - 1
        if self.is_dropoff(v):
            return v - self.num_requests - 1
        raise ValueError(f"node {v} is a depot")


def build_graph_map(instance: Instance) -> RequestGraphMap:
    requests = instance.requests  # in id order, so node r.id + 1 is r's pickup
    return RequestGraphMap(
        num_requests=len(requests),
        location_of=(0, *(r.pickup for r in requests),
                     *(r.dropoff for r in requests), 0),
        volume_of=(0, *(r.q for r in requests), *(-r.q for r in requests), 0))


@dataclass(frozen=True)
class RequestEncoding:
    model: MipModel
    graph_map: RequestGraphMap
    instance: Instance


def predicted_counts_request(n: int, m: int) -> tuple[int, int]:
    """Closed-form census of the request-based model (N = 2n+2 nodes)."""
    nn = 2 * n + 2
    variables = m * nn * nn + 2 * m * nn
    rows = 2 * m + n + 4 * m * n + 2 * m * nn * (nn - 1)
    return variables, rows


def _fixed_to_zero(gmap: RequestGraphMap, o: int, d: int) -> bool:
    """Speed-up variable fixings: self arcs, depot shortcuts, returns to the
    start depot and departures from the end depot."""
    end = 2 * gmap.num_requests + 1  # pickups and dropoffs lie strictly between
    return (o == d or (o == 0 and gmap.is_dropoff(d)) or (gmap.is_pickup(o) and d == end)
            or (d == 0 and 0 < o < end) or (o == end and 0 < d < end))


# variable families, in declaration order; a term (family F, offset k) of a
# row layout is column fleet[t][F] + k of the truck t the row belongs to
X, U, H = range(3)


def encode_request(instance: Instance) -> RequestEncoding:
    gmap = build_graph_map(instance)
    nn = gmap.num_nodes
    n = gmap.num_requests
    end = nn - 1
    trucks = instance.trucks
    m = len(trucks)
    nodes = range(nn)
    arc_suffix, out_of, into = arc_layout(nn)
    arcs = [(o, d) for o in nodes for d in nodes]
    # ordered pairs of distinct nodes: the index set of ca7 and ca9
    pairs = [(o, d) for o, d in arcs if o != d]
    pair_suffix = [arc_suffix[o * nn + d] for o, d in pairs]
    b = ModelBuilder()

    # nodes whose load change alone overflows a truck are unreachable for it;
    # barring the arcs keeps the verbatim load bounds from emptying out
    volume_of = gmap.volume_of
    barred = [[abs(volume) > t.capacity for volume in volume_of] for t in trucks]
    fixed = [_fixed_to_zero(gmap, o, d) for o, d in arcs]
    # payment is collected on departure from a pickup node, merged into the
    # arc objective coefficients; each arc's cost is that of its physical arc,
    # an index into the flattened location cost table
    w_of = [instance.requests[gmap.request_of(o)].w if gmap.is_pickup(o) else 0.0
            for o in nodes]
    w_arcs = [w_of[o] for o, _ in arcs]
    loc = gmap.location_of
    nv = instance.graph.num_nodes
    physical = [loc[o] * nv + loc[d] for o, d in arcs]
    flat_costs = ([cost for row in instance.arc_costs(t) for cost in row]
                  for t in trucks)
    x0 = b.add_variables(
        [prefix + suffix for prefix in [f"x_t{t.id}" for t in trucks]
         for suffix in arc_suffix], VarKind.BINARY, [0.0] * (m * nn * nn),
        [0.0 if fix or bar[o] or bar[d] else 1.0
         for bar in barred for fix, (o, d) in zip(fixed, arcs)],
        list(chain.from_iterable(map(sub, w_arcs, map(flat.__getitem__, physical))
                                 for flat in flat_costs)))
    u0 = b.add_variables(
        [u_name(t.id, v) for t in trucks for v in nodes], VarKind.INTEGER,
        [0.0] * (m * nn), [nn - 1] * (m * nn), [0.0] * (m * nn))
    h0 = b.add_variables(
        [h_name(t.id, v) for t in trucks for v in nodes], VarKind.CONTINUOUS,
        [0.0 if bar[v] else float(max(0, volume_of[v]))
         for bar in barred for v in nodes],
        [float(t.capacity) if bar[v]
         else float(min(t.capacity, t.capacity + volume_of[v]))
         for t, bar in zip(trucks, barred) for v in nodes],
        [0.0] * (m * nn))
    fleet = [[x0 + i * nn * nn, u0 + i * nn, h0 + i * nn] for i in range(m)]

    def per_truck(*heads: str) -> list[list[str]]:
        return [[f"{head}_t{t.id}" for head in heads] for t in trucks]
    pickups = range(1, n + 1)
    # every route leaves the start depot once and enters the end depot once
    b.add_family("ca3", per_truck("ca3s", "ca3e"), ["", ""], [Sense.EQ], [1.0], [nn - 1],
                 out_of[0] + into[end], [X], fleet, [1.0])
    # each pickup node visited at most once, over all trucks
    width = m * (nn - 1)
    b.add_rows([f"ca4_d{d}" for d in pickups], [Sense.LE] * n, [1.0] * n,
               [width] * n,
               [bases[X] + j for d in pickups for bases in fleet
                for j in into[d]],
               [1.0] * (width * n), "ca4")
    # pickup and dropoff of one request stay on the same truck
    offsets = [j for o in pickups for j in out_of[o] + out_of[o + n]]
    b.add_family("ca5", per_truck("ca5"), [f"_o{o}" for o in pickups], [Sense.EQ], [0.0],
                 [2 * nn - 2], offsets, [X], fleet, [1.0] * (nn - 1) + [-1.0] * (nn - 1))
    # flow conservation at every pickup/dropoff node
    offsets = [j for v in range(1, end) for j in out_of[v] + into[v]]
    b.add_family("ca6", per_truck("ca6"), [f"_v{v}" for v in nodes[1:end]], [Sense.EQ], [0.0],
                 [2 * nn - 2], offsets, [X], fleet, [1.0] * (nn - 1) + [-1.0] * (nn - 1))
    # MTZ ordering over all ordered node pairs: u_d - u_o - N x_od >= 1 - N
    pair_offsets = list(chain.from_iterable((d, o, o * nn + d) for o, d in pairs))
    b.add_family("ca7", per_truck("ca7"), pair_suffix, [Sense.GE], [1.0 - nn], [3],
                 pair_offsets, [U, U, X], fleet, [1.0, -1.0, -float(nn)])
    # loading before unloading, per request (integer-gap form)
    b.add_family("ca8", per_truck("ca8"), [f"_r{r - 1}" for r in pickups], [Sense.GE], [1.0],
                 [2], [j for r in pickups for j in (r + n, r)], [U, U], fleet, [1.0, -1.0])
    # load propagation along traversed arcs; an unreachable target keeps its
    # row (arcs there are already barred) but with the volume zeroed so the
    # relaxed h box cannot make the vacuous case contradictory; the terms are
    # laid out as in ca7: h_d - h_o - capacity x_od
    rhs_of = [[float((0 if bar[d] else volume_of[d]) - t.capacity) for d in nodes]
              for t, bar in zip(trucks, barred)]
    b.add_family("ca9", per_truck("ca9"), pair_suffix, [Sense.GE],
                 [rhs[d] for rhs in rhs_of for _, d in pairs], [3], pair_offsets, [H, H, X],
                 fleet, list(chain.from_iterable(
                     [1.0, -1.0, -float(t.capacity)] * len(pairs) for t in trucks)))
    return RequestEncoding(model=b.build(), graph_map=gmap, instance=instance)


def decode_request(encoding: RequestEncoding, assignment: dict[str, float]
                   ) -> tuple[DeliveryRoutingSolution, dict[int, tuple[int, ...]]]:
    """Walk each truck's 0 -> ... -> 2n+1 path; a request is served by the
    truck whose path enters its pickup node.

    Returns the solution in location vocabulary (consecutive co-located
    nodes collapsed) plus the raw node sequences for auditing.
    """
    gmap = encoding.graph_map
    instance = encoding.instance
    nn = gmap.num_nodes
    end = nn - 1
    plans = []
    raw_routes: dict[int, tuple[int, ...]] = {}
    for t in instance.trucks:
        node_path = walk(t.id, arc_successors(t.id, nn, assignment), 0, end)
        raw_routes[t.id] = node_path
        delivery = frozenset(gmap.request_of(v) for v in node_path if gmap.is_pickup(v))
        route = tuple(loc for loc, _ in groupby(gmap.location_of[v] for v in node_path))
        if len(route) == 1:  # straight 0 -> end drive, both depots co-located
            route = ()
        plans.append(TruckPlan(truck_id=t.id, delivery=delivery, route=route))
    return DeliveryRoutingSolution(plans=tuple(plans)), raw_routes


def request_graph_solution(encoding: RequestEncoding, raw_routes: dict[int, tuple[int, ...]]
                           ) -> tuple[DeliveryRoutingSolution, Instance]:
    """decode_request's raw paths as a solution over the request graph, given
    as an Instance: node v at location location_of[v], request r from node
    r+1 to node r+n+1, the trucks without cost matrices. A plan delivers each
    request with an event on its path, and its route ends at depot 0."""
    instance, gmap = encoding.instance, encoding.graph_map
    coords, n = instance.graph.coords, gmap.num_requests
    graph = Instance(LocationGraph(tuple(coords[loc] for loc in gmap.location_of)),
                     tuple(replace(r, pickup=r.id + 1, dropoff=r.id + n + 1)
                           for r in instance.requests),
                     tuple(replace(t, cost_matrix=None) for t in instance.trucks))
    plans = tuple(TruckPlan(tid, frozenset(map(gmap.request_of, path[1:-1])),
                            (0, *path[1:-1], 0) if len(path) > 2 else ())
                  for tid, path in raw_routes.items())
    return DeliveryRoutingSolution(plans), graph
