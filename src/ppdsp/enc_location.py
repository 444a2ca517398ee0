"""Location-based MIP encoder: nodes are unique physical locations.

Variable roles: x_t{t}_o{o}_d{d} arc binaries, y_t{t}_r{r} assignment
binaries, u_t{t}_v{v} integer visit-order, h_t{t}_v{v} continuous departing
load. Strict order inequalities are rewritten with a -1 gap, exact because
u is integer.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .core import DeliveryRoutingSolution, Instance, TruckPlan
from .mipir import MipModel, ModelBuilder, Sense, VarKind


class DecodeError(ValueError):
    """A solver's values do not describe integral routes; raised by both
    formulations' decoders."""


def x_name(t: int, o: int, d: int) -> str:
    return f"x_t{t}_o{o}_d{d}"


def y_name(t: int, r: int) -> str:
    return f"y_t{t}_r{r}"


def u_name(t: int, v: int) -> str:
    return f"u_t{t}_v{v}"


def h_name(t: int, v: int) -> str:
    return f"h_t{t}_v{v}"


@dataclass(frozen=True)
class LocationEncoding:
    model: MipModel
    instance: Instance


def predicted_counts_location(num_nodes: int, n: int, m: int) -> tuple[int, int]:
    """Closed-form census of the location-based model."""
    nv = num_nodes
    variables = m * nv * nv + m * n + 2 * m * (nv - 1)
    rows = n + 3 * m * n + 2 * m * nv + 3 * m * (nv - 1) * (nv - 2)
    return variables, rows


def arc_layout(size: int) -> tuple[list[str], list[list[int]], list[list[int]]]:
    """One truck's x family over the complete digraph on nodes 0..size-1:
    x_t{t}_o{o}_d{d} sits at offset o*size + d. Returns each arc's name
    suffix in offset order, and per node the offsets of the arcs leaving
    it and of those entering it, self arcs left out."""
    nodes = range(size)
    suffix = [f"_o{o}_d{d}" for o in nodes for d in nodes]
    out_of = [[o * size + d for d in nodes if d != o] for o in nodes]
    into = [[o * size + d for o in nodes if o != d] for d in nodes]
    return suffix, out_of, into


# variable families, in declaration order; a term (family F, offset k) of a
# row layout is column fleet[t][F] + k of the truck t the row belongs to
X, Y, U, H = range(4)


def encode_location(instance: Instance) -> LocationEncoding:
    nv = instance.graph.num_nodes
    trucks = instance.trucks
    m = len(trucks)
    requests = instance.requests
    n = len(requests)
    nodes = range(nv)
    arc_suffix, out_of, into = arc_layout(nv)
    # ordered pairs of distinct non-depot nodes: the index set of c8 and c10
    pairs = [(o, d) for o in range(1, nv) for d in range(1, nv) if o != d]
    pair_suffix = [arc_suffix[o * nv + d] for o, d in pairs]
    b = ModelBuilder()

    # objective: payments on y minus arc costs on x; diagonal arcs fixed to 0
    x0 = b.add_variables(
        [prefix + suffix for prefix in [f"x_t{t.id}" for t in trucks]
         for suffix in arc_suffix], VarKind.BINARY, [0.0] * (m * nv * nv),
        [float(o != d) for o in nodes for d in nodes] * m,
        [-cost for t in trucks for row in instance.arc_costs(t) for cost in row])
    y0 = b.add_variables(
        [y_name(t.id, r.id) for t in trucks for r in requests], VarKind.BINARY,
        [0.0] * (m * n), [1.0] * (m * n), [r.w for r in requests] * m)
    # u and h have no depot copy; their bases sit one back, so offset v is node v
    u0 = b.add_variables(
        [u_name(t.id, v) for t in trucks for v in range(1, nv)], VarKind.INTEGER,
        [0.0] * (m * (nv - 1)), [nv - 2] * (m * (nv - 1)), [0.0] * (m * (nv - 1))) - 1
    h0 = b.add_variables(
        [h_name(t.id, v) for t in trucks for v in range(1, nv)], VarKind.CONTINUOUS,
        [0.0] * (m * (nv - 1)), [t.capacity for t in trucks for _ in range(1, nv)],
        [0.0] * (m * (nv - 1))) - 1
    fleet = [[x0 + i * nv * nv, y0 + i * n, u0 + i * (nv - 1), h0 + i * (nv - 1)]
             for i in range(m)]

    # each request to at most one truck
    b.add_rows([f"c3_r{r.id}" for r in requests], [Sense.LE] * n, [1.0] * n,
               [m] * n, [bases[Y] + i for i in range(n) for bases in fleet],
               [1.0] * (m * n), "c3")

    def per_truck(*heads: str) -> list[list[str]]:
        return [[f"{head}_t{t.id}" for head in heads] for t in trucks]
    by_request = [f"_r{r.id}" for r in requests]
    by_node = [f"_o{o}" for o in nodes]
    # serving a request forces a visit of its pickup and its dropoff:
    # y - (arcs into the stop) <= 0
    for family, stops in (("c4", [r.pickup for r in requests]),
                          ("c5", [r.dropoff for r in requests])):
        offsets = [j for i, v in enumerate(stops) for j in [i] + into[v]]
        b.add_family(family, per_truck(family), by_request, [Sense.LE], [0.0], [nv],
                     offsets, [Y] + [X] * (nv - 1), fleet, [1.0] + [-1.0] * (nv - 1))
    # flow conservation and at most one departure per location
    offsets = [j for o in nodes for j in out_of[o] + into[o]]
    b.add_family("c6", per_truck("c6"), by_node, [Sense.EQ], [0.0], [2 * (nv - 1)], offsets,
                 [X], fleet, [1.0] * (nv - 1) + [-1.0] * (nv - 1))
    b.add_family("c7", per_truck("c7"), by_node, [Sense.LE], [1.0], [nv - 1],
                 list(chain.from_iterable(out_of)), [X], fleet, [1.0])
    # MTZ ordering over non-depot pairs: u_d - u_o - |V| x_od >= 1 - |V|
    offsets = list(chain.from_iterable((d, o, o * nv + d) for o, d in pairs))
    b.add_family("c8", per_truck("c8"), pair_suffix, [Sense.GE], [1.0 - nv], [3], offsets,
                 [U, U, X], fleet, [1.0, -1.0, -float(nv)])
    # pickup order precedes dropoff order when assigned (integer-gap rewrite)
    offsets = [j for i, r in enumerate(requests) for j in (r.pickup, r.dropoff, i)]
    b.add_family("c9", per_truck("c9"), by_request, [Sense.LE], [nv - 1.0], [3], offsets,
                 [U, U, Y], fleet, [1.0, -1.0, float(nv)])
    # load propagation along traversed arcs, big-M pair per ordered pair; the
    # net load change at the destination is shared by every origin
    gamma_of = [[i for i, r in enumerate(requests) if r.pickup == d]
                + [i for i, r in enumerate(requests) if r.dropoff == d]
                for d in nodes]
    gamma_coefs = [[-float(r.q) for r in requests if r.pickup == d]
                   + [float(r.q) for r in requests if r.dropoff == d]
                   for d in nodes]
    # c10a and c10b share their terms; each row ends in its big-M coefficient
    offsets, families, lengths = [], [], []
    for o, d in pairs:
        row_offsets = [d, o] + gamma_of[d] + [o * nv + d]
        offsets += row_offsets * 2  # c10a, then c10b
        families += ([H, H] + [Y] * len(gamma_of[d]) + [X]) * 2
        lengths += [len(row_offsets)] * 2
    total_volume = sum(r.q for r in requests)
    big_m_of = [float(t.capacity + total_volume) for t in trucks]
    b.add_family("c10", per_truck("c10a", "c10b"), [s for s in pair_suffix for _ in "ab"],
                 [Sense.LE, Sense.GE],
                 list(chain.from_iterable([big_m, -big_m] * len(pairs) for big_m in big_m_of)),
                 lengths, offsets, families, fleet,
                 [c for big_m in big_m_of for _, d in pairs for end in (big_m, -big_m)
                  for c in (1.0, -1.0, *gamma_coefs[d], end)])
    return LocationEncoding(model=b.build(), instance=instance)


INT_TOL = 1e-6


def _as_bit(name: str, value: float) -> int:
    if abs(value) <= INT_TOL:
        return 0
    if abs(value - 1.0) <= INT_TOL:
        return 1
    raise DecodeError(f"{name} = {value} is not integral")


def arc_successors(t: int, num_nodes: int, assignment: dict[str, float]
                   ) -> dict[int, int]:
    """The destination of each of truck t's arcs set to 1, by origin."""
    successor: dict[int, int] = {}
    for o in range(num_nodes):
        for d in range(num_nodes):
            if o == d:
                continue
            if _as_bit(x_name(t, o, d), assignment.get(x_name(t, o, d), 0.0)):
                if o in successor:
                    raise DecodeError(f"truck {t}: two departures from node {o}")
                successor[o] = d
    return successor


def walk(t: int, successor: dict[int, int], start: int, end: int) -> tuple[int, ...]:
    """The node sequence from start to end along successor, which must hold
    no arc off that route; successor is emptied."""
    if start not in successor:
        raise DecodeError(f"truck {t}: no arc leaves the depot")
    route = [start]
    node = successor.pop(start)
    while node != end:
        route.append(node)
        if node not in successor:
            raise DecodeError(f"truck {t}: route dead-ends at node {node}")
        node = successor.pop(node)
    route.append(end)
    if successor:
        stray = next(iter(successor))
        raise DecodeError(f"truck {t}: arcs off the depot route at node {stray}")
    return tuple(route)


def decode_location(encoding: LocationEncoding,
                    assignment: dict[str, float]) -> DeliveryRoutingSolution:
    """Rebuild per-truck deliveries from y and routes by walking x arcs from
    the depot."""
    instance = encoding.instance
    nv = instance.graph.num_nodes
    plans = []
    for t in instance.trucks:
        delivery = frozenset(
            r.id for r in instance.requests
            if _as_bit(y_name(t.id, r.id), assignment.get(y_name(t.id, r.id), 0.0)))
        successor = arc_successors(t.id, nv, assignment)
        if not successor and delivery:
            raise DecodeError(f"truck {t.id}: requests assigned but no arcs")
        route = walk(t.id, successor, 0, 0) if successor else ()
        plans.append(TruckPlan(truck_id=t.id, delivery=delivery, route=route))
    return DeliveryRoutingSolution(plans=tuple(plans))
