"""Online planning: pick the cheapest satisfying basis marking, lift it back.

The offline half compiles an environment once (movement net, reduction,
indicators, basis graph); the online half answers one formula: compile it
once to one ascending place list per clause, combine the basis graph's
per-place occupancy bitsets to find the cheapest marking meeting every
clause, and walk the parent edges back to the root. The short abstract
run is then lifted, checked and split into per-agent paths in one pass
per abstract transition (``walk_route``): each transition's grid moves are
checked against the movement net, fired and handed to an agent as whole
tuples, so no Python loop runs per grid move, and a route that fails a
check is refused. Infeasibility is a first-class result, not an exception.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import repeat
from operator import itemgetter
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from .abstraction import MonitoredNet, SimplifiedNet, build_monitored, build_simplified
from .basis_graph import DEFAULT_STATE_CAP, BasisGraph, build_graph
from .errors import IntegrityError, StateBudgetError
from .grid import Cell, Environment, Plan, env_to_pn, free_cells
from .petri import PetriNet
from .taskspec import BooleanSpec, SpecVectors, compile_vectors, holds, parse


@dataclass(frozen=True)
class OfflineModel:
    """Everything derivable from the environment alone.

    ``starts[a]`` is the place of agent ``a``'s start cell in ``net``.
    """

    net: PetriNet
    cells: Tuple[Cell, ...]
    simplified: SimplifiedNet
    monitored: MonitoredNet
    graph: BasisGraph
    starts: Tuple[int, ...]


class TargetChoice(NamedTuple):
    index: int
    cost: Fraction


@dataclass(frozen=True)
class Infeasible:
    """Which clause families could not be met (each tested on its bitset of
    the formula's one split over the occupancy index; 'combination' means
    each family is satisfiable alone but never jointly)."""

    families: Tuple[str, ...]

    @property
    def message(self) -> str:
        return "infeasible: no reachable marking satisfies the " \
            + " + ".join(self.families) + " constraints"


def offline_model(env: Environment, reduction_for: Callable[[PetriNet], SimplifiedNet],
                  graph_for: Callable[[PetriNet], BasisGraph]) -> OfflineModel:
    """The offline model of ``env``: its free cells and movement net, the
    reduction ``reduction_for`` returns for that net, the visit latches,
    and the basis graph ``graph_for`` returns for the monitored net, each
    built or loaded."""
    cells = free_cells(env)
    net = env_to_pn(env, cells)
    simplified = reduction_for(net)
    monitored = build_monitored(simplified)
    # the cells are sorted, and env_to_pn has checked that each start is one
    return OfflineModel(net, cells, simplified, monitored, graph_for(monitored.net),
                        tuple(map(partial(bisect_left, cells), env.agents)))


def build_offline(env: Environment, state_cap: int = DEFAULT_STATE_CAP) -> OfflineModel:
    """Compile ``env`` into an offline model: movement net, reduction (with
    its escape moves), visit latches and basis graph.

    A map with more free cells than ``state_cap`` raises StateBudgetError
    before any per-cell work, so a huge grid fails at once rather than
    running out of memory in the movement net; the tree build then applies
    the cap to its markings."""
    if env.rows * env.cols - len(env.obstacles) > state_cap:
        raise StateBudgetError(state_cap, what="movement net")
    return offline_model(env, build_simplified,
                         lambda monitored: build_graph(monitored, state_cap=state_cap))


def split_formula(graph: BasisGraph, vectors: SpecVectors, escapes: Sequence):
    """Split a compiled formula into ``(trajectory, final, stuck, hops)``
    over the graph's occupancy index, the one split a query makes.

    A forbidden place with an entry in ``escapes`` (indexed like the
    reduced places, see SimplifiedNet) is soft: an agent may step off it,
    so a token there counts toward no final clause. The first two are the
    bitsets of the markings that meet every clause of that family, soft
    places dropped (-1 when it has none); ``stuck`` is that of the markings
    with a token on a forbidden place with no escape move; ``hops`` lists
    ``(place, move, weight)`` of each soft place's escape move, in
    ascending place order, its weight at the model's one scale. Empty
    ``escapes`` makes every forbidden place a hard exclusion. Raises
    ValueError for a place outside the graph."""
    n = graph.places
    for places in (*vectors.trajectory, *vectors.final, vectors.forbidden):
        for p in places:
            if not 0 <= p < n:
                raise ValueError(f"place {p} is not a place of the net")
    mobility = len(escapes)
    soft = [p for p in vectors.forbidden if p < mobility]
    final = [[p for p in places if p not in soft] for places in vectors.final]
    stuck = [p for p in vectors.forbidden if p >= mobility or escapes[p] is None]
    hops = [(p, *escapes[p]) for p in soft if escapes[p] is not None]
    return (_meeting(graph, vectors.trajectory), _meeting(graph, final),
            _any_of(graph, stuck), hops)


def _any_of(graph: BasisGraph, places) -> int:
    """Bitset of the markings with a token on at least one of ``places``."""
    bits = 0
    for p in places:
        bits |= graph.index[p]
    return bits


def _meeting(graph: BasisGraph, clauses) -> int:
    """Bitset of the markings with a token in every clause: -1 (every
    marking) when there are no clauses, 0 when a clause is empty."""
    bits = -1
    for places in clauses:
        bits &= _any_of(graph, places)
    return bits


def select_target(graph: BasisGraph, split) -> Optional[TargetChoice]:
    """Cheapest way to end on a basis marking meeting every clause, from
    the formula's ``split_formula``; None when no marking is a candidate.

    Each token ending on the place of one of the split's hops may hop off
    for the hop's cost instead of disqualifying the marking, and the
    reported cost includes those hops. The candidates are walked in
    ascending-q order, each unpacked only to price its hops, until one pays
    none (no later candidate costs less) or q alone reaches the best total;
    ties go to the smallest index. Costs are compared as plain ints: the
    tree's ``qs`` and the hops' weights count at the model's one scale,
    ``graph.scale``.
    """
    trajectory, final, stuck, hops = split
    candidates = trajectory & final
    if candidates < 0:  # no clause: every marking is a candidate
        candidates = (1 << len(graph)) - 1
    candidates = (candidates | stuck) ^ stuck
    if not candidates:
        return None
    hopping = _any_of(graph, (p for p, _, _ in hops))
    qs = graph.qs
    best = None
    while candidates:
        low = candidates & -candidates
        candidates ^= low
        i = low.bit_length() - 1
        total = qs[i]
        if best is not None and total >= best[1]:
            break
        if not low & hopping:
            best = (i, total)
            break
        m = graph.marking(i)
        total += sum(m[p] * weight for p, _, weight in hops)
        if best is None or total < best[1]:
            best = (i, total)
    return TargetChoice(best[0], Fraction(best[1], graph.scale))


def diagnose_infeasibility(graph: BasisGraph, split) -> Tuple[str, ...]:
    """Name the clause families that no basis marking satisfies alone, from
    the formula's ``split_formula``, one test per family on its bitset and
    without reading any marking: 'trajectory' and 'final' when no marking
    meets all of that family's clauses, 'forbidden' when every marking has
    a token on a disqualifying place, and 'combination' when each family
    holds alone."""
    trajectory, final, stuck, _ = split
    met = (("trajectory", trajectory), ("final", final), ("forbidden", stuck.bit_count() < len(graph)))
    return tuple(family for family, bits in met if not bits) or ("combination",)


def backtrack(graph: BasisGraph, target: int) -> Tuple[int, ...]:
    """Abstract firing sequence from the root to a basis marking: the
    transitions of the tree edges on the way down, one per edge."""
    if not 0 <= target < len(graph):
        raise ValueError(f"unknown basis marking index {target}")
    seq: List[int] = []
    while target:
        seq.append(graph.transition[target - 1])
        target = graph.parent[target - 1]
    return tuple(reversed(seq))


class Route(NamedTuple):
    """A lifted abstract run, fired on the movement net and split among the
    agents: ``counts`` maps each place occupied at its end to its token
    count, ``word`` is its proposition word (the labels of the places
    occupied at its start, then those of the place each move ends on),
    ``moves`` are its movement-net moves in firing order, and ``paths[a]``
    lists the places agent ``a`` walks through, from its start place."""

    counts: Dict[int, int]
    word: List[frozenset]
    moves: List[int]
    paths: List[List[int]]


def _at(column: Sequence, keys: Sequence[int]) -> tuple:
    """``column[k]`` for each of ``keys``, in one C-level call."""
    return itemgetter(*keys)(column) if len(keys) > 1 else (column[keys[0]],)


def _move_token(counts: Dict[int, int], src: int, dst: int) -> None:
    """Move one token of the ``{place: count}`` map ``counts`` from ``src`` to ``dst``."""
    if counts[src] == 1:
        del counts[src]
    else:
        counts[src] -= 1
    counts[dst] = counts.get(dst, 0) + 1


def walk_route(net: PetriNet, simplified: SimplifiedNet, sigma: Sequence[int],
               starts: Sequence[int]) -> Route:
    """Fire the lift of the abstract run ``sigma`` on the movement net
    ``net`` from its initial marking, and split it among the agents that
    start on the places ``starts``: one loop iteration per abstract
    transition, with the grid moves touched only by copies and comparisons.

    Each lifted sequence is checked in tuple comparisons: its moves are
    single-token moves of ``net`` that chain from its source through its
    ``places``, its source holds a token and an agent, and it ends on a
    kept place (see ``SimplifiedNet.kept_places``). One token then moves
    from the source to the last place. The walk goes to the lowest-indexed
    agent at the source; at a stop (see ``SimplifiedNet.stops``) that holds
    a lower-indexed agent, the rest of the walk goes to that agent. As
    every agent stands on a kept place between sequences, this is the rule
    of giving each move to the lowest-indexed agent at its source.

    A net with latches, agents that start off the kept places, and a step of
    ``sigma`` that fails a check raise an IntegrityError naming the check.
    """
    sources, targets, labels = net.sources, net.targets, net.labels
    lift_map, stops, kept = simplified.lift_map, simplified.stops, simplified.kept_places
    if net.latches:
        raise IntegrityError("the movement net has latch places")
    if not kept.issuperset(starts):
        raise IntegrityError("an agent starts off the kept places")
    counts = dict(net.initial_counts)
    word = [frozenset().union(*map(labels.__getitem__, counts))]
    moves: List[int] = []
    positions = list(starts)
    paths = [[p] for p in starts]
    for step, t in enumerate(sigma):
        if not 0 <= t < len(lift_map):
            raise IntegrityError(f"step {step}: unknown abstract transition {t}")
        ms = lift_map[t]
        src, seq, places = ms.source, ms.sequence, ms.places
        if src not in counts:
            raise IntegrityError(f"step {step}: place {src} holds no token")
        if src not in positions:
            raise IntegrityError(f"step {step}: no agent stands at place {src}")
        if not (seq and 0 <= min(seq) and max(seq) < len(sources)
                and _at(targets, seq) == places
                and _at(sources, seq) == (src,) + places[:-1] and places[-1] in kept):
            raise IntegrityError(f"step {step}: the moves of abstract transition {t} "
                                 f"do not chain from place {src} to a kept place")

        mover = positions.index(src)
        walked = 0
        for k in stops[t]:
            idle = places[k - 1]
            if idle in positions[:mover]:
                paths[mover].extend(places[walked:k])
                positions[mover] = idle
                mover, walked = positions.index(idle), k
        paths[mover].extend(places[walked:])
        dst = positions[mover] = places[-1]

        moves.extend(seq)
        word.extend(_at(labels, places))
        _move_token(counts, src, dst)
    return Route(counts, word, moves, paths)


def plan(env: Environment, spec: Union[BooleanSpec, str],
         offline: Optional[OfflineModel] = None) -> Union[Plan, Infeasible]:
    """End-to-end planning call. Returns a Plan or an Infeasible result.

    The formula is split over the occupancy index once
    (``split_formula``): the target is picked from that split
    (``select_target``) and, when there is no candidate, the failing
    families are named from the same split (``diagnose_infeasibility``)."""
    if isinstance(spec, str):
        spec = parse(spec)
    if offline is None:
        offline = build_offline(env)
    graph = offline.graph
    vectors = compile_vectors(spec, offline.monitored.net,
                              offline.monitored.indicator_of)
    split = split_formula(graph, vectors, offline.simplified.escapes)
    choice = select_target(graph, split)
    if choice is None:
        return Infeasible(diagnose_infeasibility(graph, split))
    index, cost = choice

    # The route is walked and checked once per abstract transition, on the
    # occupied places only: no step below reads every place of the movement
    # net or runs a Python loop per grid move, so a query costs its
    # reduced route plus C-level copies of its grid moves.
    net = offline.net
    sigma_m = backtrack(graph, index)
    route = walk_route(net, offline.simplified, sigma_m, offline.starts)

    # Agents left on forbidden final places hop onto anonymous ground: the
    # split's escape move out of such a place, once per token on it, at
    # the weight the selection priced it at.
    target = graph.marking(index)
    base_place = offline.simplified.base_place
    sources, targets = net.sources, net.targets
    hops: List[int] = []
    priced = 0
    for p, t, weight in split[3]:
        if target[p]:
            if not (0 <= t < len(sources) and sources[t] == base_place[p]):
                raise IntegrityError(f"escape hop {t} is not a move out of place {base_place[p]}")
            hops.extend([t] * target[p])
            priced += weight * target[p]
    # walk_route has checked every move id and abstract transition id of
    # the route, and the loop above every hop's, so each indexes its net's
    # weights directly
    team = (*route.moves, *hops)
    total = sum(map(net.weights.__getitem__, team))
    abstract = sum(map(offline.monitored.net.weights.__getitem__, sigma_m))

    # Defensive checks: the load recomputes every key and cost from the
    # net, so only a model edited in memory can trip these. Every net and
    # the tree count costs at the model's one scale, so costs compare as
    # plain ints: the abstract run's with the tree's, and the team's with
    # the tree's plus the hops the selection priced.
    if not net.scale == offline.monitored.net.scale == graph.scale:
        raise IntegrityError("the model's nets and tree count costs at different scales")
    if abstract != graph.qs[index] or total != graph.qs[index] + priced:
        raise IntegrityError("abstract and base run costs disagree")
    counts, word, paths = route.counts, route.word, route.paths
    if tuple(map(counts.get, base_place, repeat(0))) != target[:len(base_place)]:
        raise IntegrityError("base run does not reproduce the target marking")
    # Each hop moves one token, and the lowest-indexed agent at its source
    # takes it, as in walk_route.
    positions = [path[-1] for path in paths]
    for k, t in enumerate(hops):
        src = sources[t]
        if src not in positions:
            raise IntegrityError(f"hop {k}: no agent stands at place {src}")
        agent = positions.index(src)
        dst = positions[agent] = targets[t]
        paths[agent].append(dst)
        word.append(net.labels[dst])
        _move_token(counts, src, dst)
    if not holds(spec, word, counts, net.labels):
        raise IntegrityError("selected run does not satisfy the formula")

    return Plan(
        total_cost=cost,
        per_agent_paths=tuple(_at(offline.cells, path) for path in paths),
        team_sequence=team,
        satisfied_trace=tuple(word),
    )
