"""Model reduction: minimal sequences, the simplified net, visit indicators.

The movement net of a big grid is mostly corridor places that no formula
ever mentions. Planning only needs the start places and the labeled places,
connected by cheapest move sequences that touch no other labeled place in
between. Each such sequence becomes one abstract transition; the abstract
run is lifted back to grid moves afterwards.

The reduction runs in exact integers: move costs are scaled once by the LCM
of their denominators, and ``Fraction`` appears only in the results
(``MinimalSequence.cost`` and the reduced net's costs). It runs one
Dijkstra per source place, with the other labeled places as sinks that are
reached but never expanded, and reads each target's sequence off the
cheapest-route DAG of that one search.

The monitored net adds one latch place per trajectory proposition: every
abstract transition that ends on a cell carrying the proposition also
produces one token into the latch (saturating at one), so "was this region
ever visited" becomes a marking query.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .petri import VISIT, Atom, PetriNet


@dataclass(frozen=True)
class MinimalSequence:
    """Cheapest admissible move sequence between two places of the base net."""

    source: int
    target: int
    sequence: Tuple[int, ...]
    cost: Fraction


@dataclass(frozen=True)
class SimplifiedNet:
    """Reduced net over start + labeled places.

    ``lift_map[t]`` is the base-net move sequence realizing abstract
    transition ``t``; ``base_place[i]`` is the base-net place behind reduced
    place ``i``.
    """

    net: PetriNet
    lift_map: Tuple[MinimalSequence, ...]
    base_place: Tuple[int, ...]


@dataclass(frozen=True)
class MonitoredNet:
    """Simplified net extended with one saturating indicator place per
    trajectory proposition; indicator places carry no labels and are listed
    in ``indicator_of`` (proposition name -> place id)."""

    net: PetriNet
    indicator_of: Dict[str, int]


def labeled_places(net: PetriNet) -> Tuple[int, ...]:
    return tuple(p for p in range(net.num_places) if net.labels[p])


class _Moves:
    """Single-input single-output transitions (moves) of a net as integer
    adjacency, built once per net.

    ``out[p]`` lists ``(t, q, w)`` in ascending transition id for the moves
    from ``p`` to ``q``; ``into[q]`` lists ``(p, w)`` for the moves into
    ``q``. ``w`` is the move's cost times ``scale``, the LCM of all cost
    denominators, so every weight and every route cost is an exact integer.
    """

    def __init__(self, net: PetriNet):
        weights, self.scale = net.integer_costs
        self.out = [[] for _ in range(net.num_places)]
        self.into = [[] for _ in range(net.num_places)]
        for t in range(net.num_transitions):
            if len(net.pre[t]) == 1 and len(net.post[t]) == 1:
                p, q = net.pre[t][0], net.post[t][0]
                self.out[p].append((t, q, weights[t]))
                self.into[q].append((p, weights[t]))

    def cheapest(self, source: int, sinks) -> List[Optional[int]]:
        """Dijkstra from ``source``: scaled cost of the cheapest route to
        every place (None if unreachable). Places in ``sinks`` are reached
        but never expanded, so no route passes through one."""
        dist: List[Optional[int]] = [None] * len(self.out)
        dist[source] = 0
        heap = [(0, source)]
        out = self.out
        while heap:
            d, p = heapq.heappop(heap)
            if d > dist[p] or p in sinks:
                continue
            for _, q, w in out[p]:
                nd = d + w
                old = dist[q]
                if old is None or nd < old:
                    dist[q] = nd
                    heapq.heappush(heap, (nd, q))
        return dist

    def route(self, dist: List[Optional[int]], source: int, target: int,
              sinks) -> MinimalSequence:
        """Lexicographically smallest cheapest route from ``source`` to a
        reached ``target``, read off the cheapest-route DAG of ``dist``.

        The DAG holds the moves ``p -> q`` with ``dist[p] + w == dist[q]``
        out of expanded places; its paths from source to target are exactly
        the cheapest routes. A backward sweep from the target marks the
        places that still reach it; the forward walk then takes, at every
        step, the smallest transition id whose head is marked. Costs are
        positive, so no cheapest route is a prefix of another and this
        greedy choice yields the smallest transition-id tuple.
        """
        reaches = {target}
        stack = [target]
        while stack:
            q = stack.pop()
            for p, w in self.into[q]:
                if p not in reaches and p not in sinks and dist[p] is not None \
                        and dist[p] + w == dist[q]:
                    reaches.add(p)
                    stack.append(p)
        seq = []
        p = source
        while p != target:
            for t, q, w in self.out[p]:
                if q in reaches and dist[p] + w == dist[q]:
                    seq.append(t)
                    p = q
                    break
        return MinimalSequence(source, target, tuple(seq),
                               Fraction(dist[target], self.scale))


def build_simplified(net: PetriNet) -> SimplifiedNet:
    """Reduce the base net to start places plus labeled places.

    One abstract transition is created for every ordered pair (p, p') with
    p a start or labeled place, p' a labeled place, p != p', for which an
    admissible minimal sequence exists (one that touches no labeled place
    other than p and p'). Only single-input single-output transitions
    (moves) are followed, and ties on cost go to the lexicographically
    smallest transition-id sequence. Transitions are numbered by ascending
    (p, p') base place ids.

    The move adjacency and its integer weights are built once, and one
    Dijkstra runs per source p with every other labeled place as a sink.
    A sink is never expanded, so the routes to p' avoid every labeled place
    but p and p'; p' being a sink too changes nothing, since with positive
    costs a cheapest route never passes through its own end. Each target's
    sequence is then read off that one search (see ``_Moves.route``).
    """
    labeled = labeled_places(net)
    started = tuple(p for p in range(net.num_places) if net.initial_marking[p] > 0)
    base = tuple(sorted(set(labeled) | set(started)))
    index = {p: i for i, p in enumerate(base)}
    labeled_set = frozenset(labeled)
    moves = _Moves(net)

    lift_map = []
    pre = []
    post = []
    for p in base:
        sinks = labeled_set - {p}
        dist = moves.cheapest(p, sinks)
        for q in labeled:
            if q == p or dist[q] is None:
                continue
            lift_map.append(moves.route(dist, p, q, sinks))
            pre.append((index[p],))
            post.append((index[q],))

    reduced = PetriNet(
        num_places=len(base),
        pre=tuple(pre),
        post=tuple(post),
        cost=tuple(ms.cost for ms in lift_map),
        labels=tuple(net.labels[p] for p in base),
        initial_marking=tuple(net.initial_marking[p] for p in base),
    )
    return SimplifiedNet(reduced, tuple(lift_map), base)


def lift(simplified: SimplifiedNet, sigma: Sequence[int]) -> Tuple[int, ...]:
    """Expand an abstract transition sequence into base-net moves."""
    moves = []
    for t in sigma:
        if not isinstance(t, int) or not 0 <= t < len(simplified.lift_map):
            raise ValueError(f"unknown abstract transition {t!r}")
        moves.extend(simplified.lift_map[t].sequence)
    return tuple(moves)


def build_monitored(simplified: SimplifiedNet,
                    trajectory_props: Iterable[str]) -> MonitoredNet:
    """Attach one saturating indicator place per trajectory proposition.

    A transition produces into an indicator iff its target place carries the
    proposition. Indicators start at one for propositions carried by places
    that are occupied initially (starting inside a region counts as a visit).
    """
    base = simplified.net
    props = sorted(set(trajectory_props))
    mobility = base.num_places
    indicator_of = {name: mobility + i for i, name in enumerate(props)}

    post = []
    for t in range(base.num_transitions):
        target = base.post[t][0]
        extra = tuple(indicator_of[name] for name in props
                      if Atom(VISIT, name) in base.labels[target])
        post.append(base.post[t] + extra)

    counts = list(base.initial_marking) + [0] * len(props)
    for p in range(base.num_places):
        if base.initial_marking[p] > 0:
            for atom in base.labels[p]:
                if atom.kind == VISIT and atom.name in indicator_of:
                    counts[indicator_of[atom.name]] = 1

    monitored = PetriNet(
        num_places=mobility + len(props),
        pre=base.pre,
        post=tuple(post),
        cost=base.cost,
        labels=base.labels + tuple(frozenset() for _ in props),
        initial_marking=tuple(counts),
        clamp_at_one=frozenset(indicator_of.values()),
    )
    return MonitoredNet(monitored, indicator_of)
