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
reached but never expanded; the search stops once its last sink is
settled. One sweep back over the settled places marks which sinks each
place reaches on the cheapest-route DAG of that search, and each target's
sequence is read off that DAG.

The monitored net adds one latch place per trajectory proposition: every
abstract transition that ends on a cell carrying the proposition also
produces one token into the latch (saturating at one), so "was this region
ever visited" becomes a marking query.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .petri import VISIT, Atom, PetriNet


@dataclass(frozen=True)
class MinimalSequence:
    """Cheapest admissible move sequence between two places of the base net.

    ``places[k]`` is the base place that move ``sequence[k]`` ends on, so
    ``places[-1]`` is ``target`` and the route runs ``source, *places``.
    """

    source: int
    target: int
    sequence: Tuple[int, ...]
    cost: Fraction
    places: Tuple[int, ...]


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

    @cached_property
    def kept_places(self) -> frozenset:
        """The base-net places the reduction keeps: the set of
        ``base_place``, worked out on first use."""
        return frozenset(self.base_place)

    @cached_property
    def stops(self) -> Tuple[Tuple[int, ...], ...]:
        """``stops[t]`` lists, in ascending order, the indices ``k >= 1`` of
        the moves of ``lift_map[t]`` that leave a kept place: the route
        passes ``places[k - 1]``, an unlabeled start place where an idle
        agent may stand. Worked out on first use; most tuples are empty,
        since a route enters no labeled place but its target."""
        kept = self.kept_places
        return tuple(() if kept.isdisjoint(ms.places[:-1]) else
                     tuple(k for k, p in enumerate(ms.places[:-1], 1) if p in kept)
                     for ms in self.lift_map)


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
    from ``p`` to ``q``. ``w`` is the move's cost times ``scale``, the LCM
    of all cost denominators, so every weight and every route cost is an
    exact integer.
    """

    def __init__(self, net: PetriNet):
        weights, self.scale = net.integer_costs
        self.out = [[] for _ in range(net.num_places)]
        for t, ps, qs, w in zip(range(net.num_transitions), net.pre, net.post, weights):
            if len(ps) == 1 and len(qs) == 1:
                self.out[ps[0]].append((t, qs[0], w))

    def cheapest(self, source: int, sink: bytearray,
                 sinks: int) -> Tuple[List[Optional[int]], List[int]]:
        """Dijkstra from ``source`` over the places whose ``sink`` flag is 0.

        Flagged places are reached but never expanded, so no route passes
        through one; there are ``sinks`` of them, and the search stops once
        the last is settled. Returns ``(dist, settled)``: the scaled cost of
        the cheapest route to every settled place (None if unreachable),
        and the settled places in the order settled. A place reached but
        not settled before the stop may hold a higher, unfinished cost:
        every settled sink's cost is below it, so no cheapest route to a
        sink passes through it.

        The heap holds one int per entry, ``cost << shift | place``, which
        orders like the pair (cost, place).
        """
        out = self.out
        shift = len(out).bit_length()
        mask = (1 << shift) - 1
        dist: List[Optional[int]] = [None] * len(out)
        dist[source] = 0
        settled = []
        heap = [source]
        pop, push = heapq.heappop, heapq.heappush
        while heap:
            key = pop(heap)
            p = key & mask
            d = key >> shift
            if d != dist[p]:
                continue
            settled.append(p)
            if sink[p]:
                sinks -= 1
                if not sinks:
                    break
                continue
            for _, q, w in out[p]:
                nd = d + w
                old = dist[q]
                if old is None or nd < old:
                    dist[q] = nd
                    push(heap, nd << shift | q)
        return dist, settled

    def reaching(self, dist: List[Optional[int]], settled: List[int], sink: bytearray,
                 bit: Dict[int, int]) -> List[int]:
        """For every place, the set of sinks (a bitset of ``bit[s]``) that
        it reaches in the cheapest-route DAG of one ``cheapest`` search.

        The DAG holds the moves ``p -> q`` with ``dist[p] + w == dist[q]``
        out of expanded places; its paths from the source to a sink are
        exactly the cheapest routes. Costs are positive, so every move of
        the DAG ends on a place settled after its start, and one sweep in
        reverse settling order sees each head before its tail.
        """
        out = self.out
        reach = [0] * len(out)
        for p in reversed(settled):
            if sink[p]:
                reach[p] = bit[p]
                continue
            d = dist[p]
            r = 0
            for _, q, w in out[p]:
                if d + w == dist[q]:
                    r |= reach[q]
            reach[p] = r
        return reach

    def route(self, dist: List[Optional[int]], reach: List[int], source: int,
              target: int, bit: int) -> MinimalSequence:
        """Lexicographically smallest cheapest route from ``source`` to a
        settled ``target`` whose ``reaching`` bit is ``bit``, with the place
        each of its moves ends on.

        The walk takes, at every step, the smallest transition id of a DAG
        move whose head still reaches the target. Costs are positive, so no
        cheapest route is a prefix of another and this greedy choice yields
        the smallest transition-id tuple.
        """
        seq = []
        places = []
        p = source
        while p != target:
            d = dist[p]
            for t, q, w in self.out[p]:
                if reach[q] & bit and d + w == dist[q]:
                    seq.append(t)
                    places.append(q)
                    p = q
                    break
        return MinimalSequence(source, target, tuple(seq),
                               Fraction(dist[target], self.scale), tuple(places))


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
    costs a cheapest route never passes through its own end. Each search
    stops once its last sink is settled; one backward sweep over the places
    it settled marks which targets each place reaches, and each target's
    sequence is then read off that one search (see ``_Moves.route``).
    """
    labeled = labeled_places(net)
    started = tuple(p for p in range(net.num_places) if net.initial_marking[p] > 0)
    base = tuple(sorted(set(labeled) | set(started)))
    index = {p: i for i, p in enumerate(base)}
    bit = {q: 1 << k for k, q in enumerate(labeled)}
    sink = bytearray(net.num_places)
    for q in labeled:
        sink[q] = 1
    moves = _Moves(net)

    lift_map = []
    pre = []
    post = []
    for p in base:
        own = sink[p]
        sinks = len(labeled) - own
        if not sinks:
            continue
        sink[p] = 0
        dist, settled = moves.cheapest(p, sink, sinks)
        reach = moves.reaching(dist, settled, sink, bit)
        for q in labeled:
            if q == p or dist[q] is None:
                continue
            lift_map.append(moves.route(dist, reach, p, q, bit[q]))
            pre.append((index[p],))
            post.append((index[q],))
        sink[p] = own

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
