"""Model reduction: minimal sequences, the simplified net, visit indicators.

The movement net of a big grid is mostly corridor places that no formula
ever mentions. Planning only needs the start places and the labeled places,
connected by cheapest move sequences that touch no other labeled place in
between. Each such sequence becomes one abstract transition; the abstract
run is lifted back to grid moves afterwards.

The reduction runs in the movement net's integer weights, at the scale
every net of the model shares: a sequence's weight is the sum of its
moves', so the reduced net and the monitored net keep the movement net's
scale and hold every cost exactly. It runs one Dijkstra back from each
labeled target place, with the other labeled places settled but never
expanded; the search stops once its last start or labeled place is
settled. Each source's sequence is then read off the target's costs: from
the source, always the smallest transition id that keeps to a cheapest
route.

The monitored net adds one latch place per trajectory proposition: every
abstract transition that ends on a cell carrying the proposition also sets
the latch, so "was this region ever visited" becomes a marking query. It
is the reduced net with those latches added to each move's latch column;
its moves, weights and scale are the reduced net's.
"""

from __future__ import annotations

import heapq
import struct
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, count, islice
from operator import sub
from typing import Dict, List, Optional, Sequence, Tuple

from .petri import VISIT, PetriNet


@dataclass(frozen=True)
class MinimalSequence:
    """Cheapest admissible move sequence between two places of the base net.

    ``places[k]`` is the base place that move ``sequence[k]`` ends on, so
    ``places[-1]`` is ``target`` and the route runs ``source, *places``.
    ``weight`` is the sum of the moves' weights, at the base net's
    ``scale``.
    """

    source: int
    target: int
    sequence: Tuple[int, ...]
    weight: int
    places: Tuple[int, ...]


@dataclass(frozen=True)
class SimplifiedNet:
    """Reduced net over start + labeled places.

    ``lift_map[t]`` is the base-net move sequence realizing abstract
    transition ``t``; ``base_place[i]`` is the base-net place behind reduced
    place ``i``.

    ``escapes[i]`` is the cheapest single base-net move from reduced place
    ``i`` onto an unlabeled cell (transition id, weight), or None when every
    neighbor is labeled or blocked; ties go to the smallest transition id.
    It prices clearing a forbidden final place: an agent that must not end
    on a labeled cell can always stop one step away on anonymous ground,
    which the reduced net cannot express.
    """

    net: PetriNet
    lift_map: Tuple[MinimalSequence, ...]
    base_place: Tuple[int, ...]
    escapes: Tuple[Optional[Tuple[int, int]], ...]

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
    return tuple(compress(range(net.num_places), net.labels))


class _Moves:
    """The moves of a net as integer adjacency, built once per net.

    ``out[p]`` lists ``(t, x, w)`` in ascending transition id for the moves
    from ``p`` to ``x``, and ``into[x]`` lists ``(p, w)`` for the moves into
    ``x``; ``w`` is the move's weight. ``unseen`` exceeds the sum of all
    weights, so it is dearer than any route that visits no place twice.
    """

    def __init__(self, net: PetriNet):
        self.out = [[] for _ in range(net.num_places)]
        self.into = [[] for _ in range(net.num_places)]
        for t, p, x, w in zip(count(), net.sources, net.targets, net.weights):
            self.out[p].append((t, x, w))
            self.into[x].append((p, w))
        self.unseen = sum(net.weights) + 1

    def cheapest(self, target: int, role: bytearray, sources: int) -> List[int]:
        """Dijkstra back from ``target`` over ``into``: the scaled cost of the
        cheapest route from each place to ``target``.

        ``role[p]`` is 0 for a place routes may pass, 1 for a source they
        may pass too, and 2 for a source they may only start from: such a
        place is settled but never expanded. There are ``sources`` places
        of role 1 or 2, and the search stops once the last is settled.
        Places never reached hold ``unseen``. A place reached but not
        settled before the stop may hold a higher, unfinished cost, but a
        cheapest route from a source passes only places cheaper than the
        source, and those are all settled.

        The queue is a dict from each pending cost to its places, with a
        heap of those costs; an entry whose place has since fallen to a
        lower cost is stale.
        """
        into = self.into
        dist = [self.unseen] * len(into)
        dist[target] = 0
        buckets = {0: [target]}
        pending = [0]
        pop, push = heapq.heappop, heapq.heappush
        while pending:
            d = pop(pending)
            for x in buckets.pop(d):
                if dist[x] != d:
                    continue
                kind = role[x]
                if kind:
                    sources -= 1
                    if not sources:
                        return dist
                    if kind > 1:
                        continue
                for p, w in into[x]:
                    nd = d + w
                    if nd < dist[p]:
                        dist[p] = nd
                        bucket = buckets.get(nd)
                        if bucket is None:
                            buckets[nd] = [p]
                            push(pending, nd)
                        else:
                            bucket.append(p)
        return dist

    def route(self, dist: List[int], role: bytearray, source: int,
              target: int) -> MinimalSequence:
        """Lexicographically smallest cheapest route from ``source`` to
        ``target`` in one ``cheapest`` search, with the place each of its
        moves ends on.

        The walk takes, at every step, the smallest transition id of a move
        onto a place routes may pass (role 0 or 1) whose cost to ``target``
        is the current place's less the move's weight. Costs are positive,
        so no cheapest route is a prefix of another and this greedy choice
        yields the smallest transition-id tuple.
        """
        seq = []
        places = []
        p = source
        while p != target:
            d = dist[p]
            for t, x, w in self.out[p]:
                if w + dist[x] == d and role[x] < 2:
                    seq.append(t)
                    places.append(x)
                    p = x
                    break
        return MinimalSequence(source, target, tuple(seq), dist[source], tuple(places))


def build_simplified(net: PetriNet) -> SimplifiedNet:
    """Reduce the base net to start places plus labeled places.

    One abstract transition is created for every ordered pair (p, p') with
    p a start or labeled place, p' a labeled place, p != p', for which an
    admissible minimal sequence exists (one that touches no labeled place
    other than p and p'). Ties on cost go to the lexicographically
    smallest transition-id sequence. Transitions are numbered by ascending
    (p, p') base place ids.

    The move adjacency and its integer weights are built once, and one
    Dijkstra runs back from each labeled target p' over the moves into each
    place. Every other labeled place is settled but never expanded, so the
    routes to p' avoid every labeled place but their ends; a source p being
    labeled changes nothing, since with positive costs a cheapest route
    never passes its own start again. Each search stops once the last start
    or labeled place is settled, and each source's sequence is read off the
    target's costs right after (see ``_Moves.route``). Each kept place's
    escape is its cheapest move onto an unlabeled place, read off the same
    adjacency.
    """
    labeled, started, base = _kept(net)
    role = bytearray(net.num_places)
    for p in started:
        role[p] = 1
    for q in labeled:
        role[q] = 2
    moves = _Moves(net)

    rows = [[] for _ in base]
    for q in labeled:
        role[q] = 0
        dist = moves.cheapest(q, role, len(base) - 1)
        for p, row in zip(base, rows):
            if p != q and dist[p] < moves.unseen:
                row.append(moves.route(dist, role, p, q))
        role[q] = 2
    lift_map = tuple(ms for row in rows for ms in row)
    hops = (min(((w, t) for t, x, w in moves.out[p] if not net.labels[x]), default=None)
            for p in base)
    # each escape is (move, weight)
    escapes = tuple(None if hop is None else hop[::-1] for hop in hops)
    return _simplified(net, base, lift_map, escapes)


def _kept(net: PetriNet) -> Tuple[Tuple[int, ...], Tuple[int, ...], Tuple[int, ...]]:
    """``(labeled, started, base)``: the labeled places of ``net``, the
    places its initial marking occupies, and the places the reduction
    keeps, the union of both, each in ascending order."""
    labeled = labeled_places(net)
    started = tuple(compress(range(net.num_places), net.initial_marking))
    return labeled, started, tuple(sorted(set(labeled) | set(started)))


def _simplified(net: PetriNet, base: Tuple[int, ...], lift_map: Tuple[MinimalSequence, ...],
                escapes: tuple) -> SimplifiedNet:
    """The ``SimplifiedNet`` of ``net`` with kept places ``base``, one
    abstract transition per entry of ``lift_map`` and those ``escapes``."""
    index = {p: i for i, p in enumerate(base)}
    reduced = PetriNet(
        num_places=len(base),
        sources=tuple(index[ms.source] for ms in lift_map),
        targets=tuple(index[ms.target] for ms in lift_map),
        weights=tuple(ms.weight for ms in lift_map),
        sets=((),) * len(lift_map),
        scale=net.scale,
        labels=tuple(net.labels[p] for p in base),
        initial_marking=tuple(net.initial_marking[p] for p in base),
    )
    return SimplifiedNet(reduced, lift_map, base, escapes)


def lift(simplified: SimplifiedNet, sigma: Sequence[int]) -> Tuple[int, ...]:
    """Expand an abstract transition sequence into base-net moves."""
    moves = []
    for t in sigma:
        if not isinstance(t, int) or not 0 <= t < len(simplified.lift_map):
            raise ValueError(f"unknown abstract transition {t!r}")
        moves.extend(simplified.lift_map[t].sequence)
    return tuple(moves)


def build_monitored(simplified: SimplifiedNet) -> MonitoredNet:
    """Attach one saturating indicator place per trajectory proposition.

    The propositions are the names of the ``VISIT`` atoms on the simplified
    net's labels. For an environment from ``parse_env`` they are exactly its
    regions' trajectory propositions: ``parse_env`` refuses a region with no
    cells or with a cell on an obstacle, so each region has at least one
    cell, each a free labeled place, and the reduction keeps every labeled
    place.

    A transition sets an indicator iff its target place carries the
    proposition. Indicators start at one for propositions carried by places
    that are occupied initially (starting inside a region counts as a visit).
    The moves, weights and scale are the simplified net's.
    """
    base = simplified.net
    props = sorted({atom.name for labels in base.labels for atom in labels
                    if atom.kind == VISIT})
    mobility = base.num_places
    indicator_of = {name: mobility + i for i, name in enumerate(props)}

    # visits[p]: the indicators of the propositions place p carries, in
    # ascending indicator id, which is the order of ``props``
    visits = [tuple(sorted(indicator_of[atom.name] for atom in labels
                           if atom.kind == VISIT))
              for labels in base.labels]
    counts = list(base.initial_marking) + [0] * len(props)
    for p, tokens in enumerate(base.initial_marking):
        if tokens:
            for indicator in visits[p]:
                counts[indicator] = 1

    monitored = PetriNet(
        num_places=mobility + len(props),
        sources=base.sources,
        targets=base.targets,
        weights=base.weights,
        scale=base.scale,
        labels=base.labels + tuple(frozenset() for _ in props),
        initial_marking=tuple(counts),
        sets=tuple(map(visits.__getitem__, base.targets)),
        latches=frozenset(indicator_of.values()),
    )
    return MonitoredNet(monitored, indicator_of)


# the byte that ends each stored route, and that stands for a kept place
# without an escape: no move's rank reaches it
_END = 255


def _count_code(kept: int) -> str:
    """The struct code of the stored route counts: the narrowest unsigned
    int of 1, 2 or 4 bytes that holds ``kept``, the kept-place count, which
    no place's route count passes."""
    return "B" if kept < 1 << 8 else "H" if kept < 1 << 16 else "I"


def _first_moves(net: PetriNet) -> Dict[int, int]:
    """``{p: t}``: the lowest id ``t`` of a move out of place ``p``, for
    each place that has one. A move's rank is its id less the ``first`` of
    its source; on a grid it is below 4."""
    sources = net.sources
    # the lowest id is the one that reaches each key last
    return dict(zip(reversed(sources), range(len(sources) - 1, -1, -1)))


def _bad_route(t: int, source: int, fault: str):
    """Raise the ValueError of stored route ``t``."""
    raise ValueError(f"the reduction's route {t} from place {source} {fault}")


def reduction_bytes(simplified: SimplifiedNet, net: PetriNet) -> bytes:
    """The reduction ``build_simplified`` made of ``net``, as the bytes
    ``read_reduction`` reads back; the same bytes for equal inputs.

    A move is stored as its rank (see ``_first_moves``), which is below 4
    on a grid. The kept places themselves follow from the net. The bytes
    are, in order:

    - per kept place, in ``base_place`` order, its escape's rank, or
      ``_END`` for none;
    - per kept place, how many abstract transitions leave it, as
      little-endian unsigned ints of ``_count_code``'s width;
    - per abstract transition, in id order, the ranks of its moves and
      then ``_END``. Transitions are numbered by source, so the counts
      give each one's source.

    Costs are not stored; ``read_reduction`` sums them from the moves.
    Raises ValueError for a move, or an escape, whose rank does not fit
    below ``_END``.
    """
    first = _first_moves(net)
    end = bytes((_END,))

    def ranks(moves: Sequence[int], places: Sequence[int]) -> bytes:
        """The ranks of ``moves``, made out of ``places``, one byte each."""
        data = bytes(map(sub, moves, map(first.__getitem__, places)))
        if end in data:
            raise ValueError(f"a move out of one of the places {places} has rank {_END}")
        return data

    index = {p: i for i, p in enumerate(simplified.base_place)}
    counts = [0] * len(index)
    for ms in simplified.lift_map:
        counts[index[ms.source]] += 1
    parts = [end if escape is None else ranks(escape[:1], (p,))
             for p, escape in zip(simplified.base_place, simplified.escapes)]
    parts.append(struct.pack(f"<{len(counts)}{_count_code(len(counts))}", *counts))
    for ms in simplified.lift_map:
        parts += ranks(ms.sequence, (ms.source, *ms.places[:-1])), end
    return b"".join(parts)


def read_reduction(data: bytes, net: PetriNet) -> SimplifiedNet:
    """The ``SimplifiedNet`` stored by ``reduction_bytes`` for ``net``,
    checked as it is read; raises ValueError at the first fault.

    Each route's ranks become move ids one step at a time, and the route
    is then checked in tuple comparisons, as ``planner.walk_route`` checks
    a lifted sequence: its moves chain from its source, no move before the
    last enters a labeled place, and the last ends on a labeled place
    other than the source, which the reduction keeps. The routes out of
    one source must end on ascending places, the order of
    ``build_simplified``. Each escape must leave its own place for an
    unlabeled one. Every weight is summed from the moves'. That the routes
    and escapes are the cheapest is not checked: the reduction is trusted
    as the tree is, and the cache's checksum guards against accidents, not
    attacks.
    """
    _, _, base = _kept(net)
    kept = len(base)
    code = _count_code(kept)
    head = kept + struct.calcsize(f"<{kept}{code}")
    if len(data) < head:
        raise ValueError(f"the reduction is {len(data)} bytes, its {kept} kept places take {head}")
    counts = struct.unpack_from(f"<{kept}{code}", data, kept)
    routes = data[head:].split(bytes((_END,)))
    if routes.pop() or len(routes) != sum(counts):
        raise ValueError(f"the reduction holds {len(routes)} routes or a partial one, "
                         f"its counts {sum(counts)}")
    sources, targets, weights, labels = net.sources, net.targets, net.weights, net.labels
    first = _first_moves(net)

    lift_map = []
    stored = iter(routes)
    for source, count in zip(base, counts):
        last = -1
        for ranks in islice(stored, count):
            seq = []
            place = source
            try:
                for r in ranks:
                    t = first[place] + r
                    seq.append(t)
                    place = targets[t]
            except (KeyError, IndexError):
                _bad_route(len(lift_map), source,
                           f"has no move of rank {r} out of place {place}")
            places = tuple(map(targets.__getitem__, seq))
            if tuple(map(sources.__getitem__, seq)) != (source, *places[:-1]):
                _bad_route(len(lift_map), source, "has moves that do not chain from its source")
            if any(map(labels.__getitem__, places[:-1])):
                _bad_route(len(lift_map), source, "enters a labeled place before its last move")
            if place == source or not labels[place]:
                _bad_route(len(lift_map), source, "does not end on another labeled place")
            if place <= last:
                _bad_route(len(lift_map), source, "breaks the order of its source's targets")
            last = place
            lift_map.append(MinimalSequence(
                source, place, tuple(seq), sum(map(weights.__getitem__, seq)), places))

    escapes = []
    for place, r in zip(base, data):
        if r == _END:
            escapes.append(None)
            continue
        # a place with no move out of it has no move of any rank
        t = first.get(place, len(sources)) + r
        if t >= len(sources) or sources[t] != place:
            raise ValueError(f"the reduction's escape of place {place} is no move out of it")
        if labels[targets[t]]:
            raise ValueError(f"the reduction's escape of place {place} enters a labeled place")
        escapes.append((t, weights[t]))
    return _simplified(net, base, tuple(lift_map), tuple(escapes))
