"""Request-based MIP encoder: every request gets its own pickup node and
dropoff node, plus start/end depot copies at the same physical spot.

request_graph is the one statement of the node layout for n requests
(N = 2n+2 nodes total), which the encoder, the decoder and the audit read:
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
from .enc_location import arc_layout, arc_successors, h_name, per_truck, u_name, walk
from .mipir import MipModel, ModelBuilder, Sense, VarKind


def request_graph(instance: Instance) -> tuple[Instance, tuple[int, ...]]:
    """The request graph as an Instance, and each node's location: node v
    sits at location_of[v], request r runs from node r+1 to node r+n+1, and
    a truck's cost matrix is read at the nodes' locations (a Euclidean truck
    needs none, each node having its location's coordinates)."""
    requests, n = instance.requests, len(instance.requests)
    location_of = (0, *(r.pickup for r in requests), *(r.dropoff for r in requests), 0)
    coords = instance.graph.coords
    graph = Instance(
        LocationGraph(tuple(coords[loc] for loc in location_of)),
        tuple(replace(r, pickup=r.id + 1, dropoff=r.id + n + 1) for r in requests),
        tuple(t if t.cost_matrix is None else replace(t, cost_matrix=tuple(
            tuple(t.cost_matrix[o][d] for d in location_of) for o in location_of))
              for t in instance.trucks))
    return graph, location_of


@dataclass(frozen=True)
class RequestEncoding:
    model: MipModel
    graph: Instance  # the request graph the model is written over
    location_of: tuple[int, ...]  # each graph node's location in instance
    instance: Instance


def predicted_counts_request(n: int, m: int) -> tuple[int, int]:
    """Closed-form census of the request-based model (N = 2n+2 nodes)."""
    nn = 2 * n + 2
    variables = m * nn * nn + 2 * m * nn
    rows = 2 * m + n + 4 * m * n + 2 * m * nn * (nn - 1)
    return variables, rows


def _fixed_to_zero(n: int, o: int, d: int) -> bool:
    """Speed-up variable fixings: self arcs, depot shortcuts, returns to the
    start depot and departures from the end depot."""
    end = 2 * n + 1  # pickups 1..n and dropoffs n+1..2n lie strictly between
    return (o == d or (o == 0 and n < d < end) or (0 < o <= n and d == end)
            or (d == 0 and 0 < o < end) or (o == end and 0 < d < end))


# variable families, in declaration order; a term (family F, offset k) of a
# row layout is column fleet[t][F] + k of the truck t the row belongs to
X, U, H = range(3)


def encode_request(instance: Instance) -> RequestEncoding:
    graph, location_of = request_graph(instance)
    nn, n = len(location_of), len(graph.requests)
    end = nn - 1
    trucks = graph.trucks
    m = len(trucks)
    nodes = range(nn)
    arc_suffix, out_of, into = arc_layout(nn)
    arcs = [(o, d) for o in nodes for d in nodes]
    # ordered pairs of distinct nodes: the index set of ca7 and ca9
    pairs = [(o, d) for o, d in arcs if o != d]
    pair_suffix = [arc_suffix[o * nn + d] for o, d in pairs]
    b = ModelBuilder()

    # each node's load change, and the payment collected on departure from
    # a pickup node, merged into the arc objective coefficients
    volume_of, w_of = [0] * nn, [0.0] * nn
    for r in graph.requests:
        volume_of[r.pickup], volume_of[r.dropoff] = r.q, -r.q
        w_of[r.pickup] = r.w
    # nodes whose load change alone overflows a truck are unreachable for it;
    # barring the arcs keeps the verbatim load bounds from emptying out
    barred = [[abs(volume) > t.capacity for volume in volume_of] for t in trucks]
    fixed = [_fixed_to_zero(n, o, d) for o, d in arcs]
    w_arcs = [w_of[o] for o, _ in arcs]
    x0 = b.add_variables(
        [prefix + suffix for prefix in [f"x_t{t.id}" for t in trucks]
         for suffix in arc_suffix], VarKind.BINARY, [0.0] * (m * nn * nn),
        [0.0 if fix or bar[o] or bar[d] else 1.0
         for bar in barred for fix, (o, d) in zip(fixed, arcs)],
        list(chain.from_iterable(map(sub, w_arcs, chain.from_iterable(graph.arc_costs(t)))
                                 for t in trucks)))
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

    pickups = range(1, n + 1)
    # every route leaves the start depot once and enters the end depot once
    b.add_family("ca3", per_truck(trucks, "ca3s", "ca3e"), ["", ""], [Sense.EQ], [1.0],
                 [nn - 1], out_of[0] + into[end], [X], fleet, [1.0])
    # each pickup node visited at most once, over all trucks
    width = m * (nn - 1)
    b.add_rows([f"ca4_d{d}" for d in pickups], [Sense.LE] * n, [1.0] * n,
               [width] * n,
               [bases[X] + j for d in pickups for bases in fleet
                for j in into[d]],
               [1.0] * (width * n), "ca4")
    # pickup and dropoff of one request stay on the same truck
    offsets = [j for o in pickups for j in out_of[o] + out_of[o + n]]
    b.add_family("ca5", per_truck(trucks, "ca5"), [f"_o{o}" for o in pickups], [Sense.EQ],
                 [0.0], [2 * nn - 2], offsets, [X], fleet,
                 [1.0] * (nn - 1) + [-1.0] * (nn - 1))
    # flow conservation at every pickup/dropoff node
    offsets = [j for v in range(1, end) for j in out_of[v] + into[v]]
    b.add_family("ca6", per_truck(trucks, "ca6"), [f"_v{v}" for v in nodes[1:end]],
                 [Sense.EQ], [0.0], [2 * nn - 2], offsets, [X], fleet,
                 [1.0] * (nn - 1) + [-1.0] * (nn - 1))
    # MTZ ordering over all ordered node pairs: u_d - u_o - N x_od >= 1 - N
    pair_offsets = list(chain.from_iterable((d, o, o * nn + d) for o, d in pairs))
    b.add_family("ca7", per_truck(trucks, "ca7"), pair_suffix, [Sense.GE], [1.0 - nn], [3],
                 pair_offsets, [U, U, X], fleet, [1.0, -1.0, -float(nn)])
    # loading before unloading, per request (integer-gap form)
    b.add_family("ca8", per_truck(trucks, "ca8"), [f"_r{r - 1}" for r in pickups],
                 [Sense.GE], [1.0], [2], [j for r in pickups for j in (r + n, r)], [U, U],
                 fleet, [1.0, -1.0])
    # load propagation along traversed arcs; an unreachable target keeps its
    # row (arcs there are already barred) but with the volume zeroed so the
    # relaxed h box cannot make the vacuous case contradictory; the terms are
    # laid out as in ca7: h_d - h_o - capacity x_od
    rhs_of = [[float((0 if bar[d] else volume_of[d]) - t.capacity) for d in nodes]
              for t, bar in zip(trucks, barred)]
    b.add_family("ca9", per_truck(trucks, "ca9"), pair_suffix, [Sense.GE],
                 [rhs[d] for rhs in rhs_of for _, d in pairs], [3], pair_offsets, [H, H, X],
                 fleet, list(chain.from_iterable(
                     [1.0, -1.0, -float(t.capacity)] * len(pairs) for t in trucks)))
    return RequestEncoding(b.build(), graph, location_of, instance)


def decode_request(encoding: RequestEncoding, assignment: dict[str, float]
                   ) -> tuple[DeliveryRoutingSolution, DeliveryRoutingSolution]:
    """Walk each truck's 0 -> ... -> 2n+1 path. Returns the solution in
    location vocabulary, where a request is served by the truck whose path
    enters its pickup node and consecutive co-located nodes collapse, and
    the path as a solution over encoding.graph for the audit: its plan
    delivers each request with a node on the path and its route ends at
    depot 0."""
    graph, location_of = encoding.graph, encoding.location_of
    nn, n = len(location_of), len(graph.requests)
    plans, graph_plans = [], []
    for t in graph.trucks:
        path = walk(t.id, arc_successors(t.id, nn, assignment), 0, nn - 1)
        stops = path[1:-1]
        route = tuple(loc for loc, _ in groupby(location_of[v] for v in path))
        plans.append(TruckPlan(t.id, frozenset(v - 1 for v in stops if v <= n),
                               route if len(route) > 1 else ()))  # () if idle
        graph_plans.append(TruckPlan(t.id, frozenset((v - 1) % n for v in stops),
                                     (0, *stops, 0) if stops else ()))
    return DeliveryRoutingSolution(tuple(plans)), DeliveryRoutingSolution(tuple(graph_plans))
