"""Online planning: pick the cheapest satisfying basis marking, lift it back.

The offline half compiles an environment once (movement net, reduction,
indicators, basis graph); the online half answers one formula: compile it to
clause vectors, scan the basis markings for the cheapest one meeting every
clause, walk the parent edges back to the root, expand explanations, lift
abstract transitions to grid moves, and split the move sequence into
per-agent paths. Infeasibility is a first-class result, not an exception.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple, Union

from .abstraction import (MonitoredNet, SimplifiedNet, build_monitored,
                          build_simplified, lift)
from .basis_graph import (DEFAULT_STATE_CAP, BasisGraph, BasisPartition,
                          build_graph, choose_partition, load_cache)
from .errors import IntegrityError
from .grid import Cell, Environment, Plan, env_to_pn, free_cells
from .petri import PetriNet, enabled, fire, replay, sequence_cost
from .taskspec import BooleanSpec, SpecVectors, compile_vectors, holds, parse


@dataclass(frozen=True)
class OfflineModel:
    """Everything derivable from the environment alone.

    ``escapes[i]`` is the cheapest single base-net move from reduced place
    ``i`` onto an unlabeled cell (transition id, cost), or None when every
    neighbor is labeled or blocked. It prices clearing a forbidden final
    place: an agent that must not end on a labeled cell can always stop one
    step away on anonymous ground, which the reduced net cannot express.
    """

    env: Environment
    net: PetriNet
    cells: Tuple[Cell, ...]
    simplified: SimplifiedNet
    monitored: MonitoredNet
    partition: BasisPartition
    graph: BasisGraph
    escapes: Tuple[Optional[Tuple[int, Fraction]], ...]


class TargetChoice(NamedTuple):
    index: int
    cost: Fraction


@dataclass(frozen=True)
class Infeasible:
    """Which clause families could not be met (checked one family at a time;
    'combination' means each family is satisfiable alone but never jointly)."""

    families: Tuple[str, ...]

    @property
    def message(self) -> str:
        return "infeasible: no reachable marking satisfies the " \
            + " + ".join(self.families) + " constraints"


def escape_steps(net: PetriNet,
                 base: Sequence[int]) -> Tuple[Optional[Tuple[int, Fraction]], ...]:
    """Cheapest single move from each base place onto an unlabeled place.

    Returns one ``(transition id, cost)`` per entry of ``base`` (None when
    no unlabeled neighbor exists). Ties go to the smallest transition id.
    """
    owner = {p: i for i, p in enumerate(base)}
    best: List[Optional[Tuple[int, Fraction]]] = [None] * len(base)
    for t in range(len(net.pre)):
        src = net.pre[t][0]
        i = owner.get(src)
        if i is None or net.labels[net.post[t][0]]:
            continue
        if best[i] is None or net.cost[t] < best[i][1]:
            best[i] = (t, net.cost[t])
    return tuple(best)


def _offline(env: Environment,
             graph_for: Callable[[MonitoredNet], Tuple[BasisGraph, BasisPartition]],
             ) -> OfflineModel:
    """Compile ``env`` into an offline model: movement net, reduction,
    visit latches and escape moves, plus the basis graph and partition that
    ``graph_for`` returns for the monitored net (built or loaded)."""
    net = env_to_pn(env)
    props = set()
    for region in env.regions:
        props |= region.trajectory_props
    simplified = build_simplified(net)
    monitored = build_monitored(simplified, props)
    graph, partition = graph_for(monitored)
    return OfflineModel(env, net, free_cells(env), simplified, monitored,
                        partition, graph, escape_steps(net, simplified.base_place))


def build_offline(env: Environment, state_cap: Optional[int] = None) -> OfflineModel:
    cap = DEFAULT_STATE_CAP if state_cap is None else state_cap

    def graph_for(monitored: MonitoredNet):
        partition = choose_partition(monitored)
        return build_graph(monitored, partition, state_cap=cap), partition

    return _offline(env, graph_for)


def load_offline(env: Environment, cache_path) -> OfflineModel:
    """Offline model whose basis graph is read from a ``save_cache`` file
    instead of being rebuilt; raises CacheError when it does not match."""
    return _offline(env, lambda monitored: load_cache(cache_path, monitored))


def _supports(vec) -> Tuple[int, ...]:
    return tuple(p for p, v in enumerate(vec) if v)


def select_target(graph: BasisGraph, vectors: SpecVectors,
                  escapes: Optional[Sequence[Optional[Tuple[int, Fraction]]]] = None,
                  ) -> Optional[TargetChoice]:
    """Cheapest way to end on a basis marking meeting every clause vector.

    Markings are stored in ascending-q order, so without escape pricing the
    first match is minimal, ties broken by smallest marking index.

    ``escapes`` (indexed like the reduced places, see OfflineModel) enables
    pricing of forbidden final places: each token ending on forbidden place
    p may hop off for escapes[p].cost instead of disqualifying the marking,
    but then no longer counts toward any final clause. The reported cost
    includes those hops. Omitting ``escapes`` treats every forbidden place
    as a hard exclusion.
    """
    if not graph.markings:
        return None
    n = len(graph.markings[0])
    for vec in (*vectors.z_list, *vectors.d_list, vectors.g):
        if len(vec) != n:
            raise ValueError("clause vector length does not match the net")

    g_sup = _supports(vectors.g)
    mobility = len(escapes) if escapes is not None else 0
    soft = [p for p in g_sup if p < mobility]
    hard = [p for p in g_sup if p >= mobility]
    drop = frozenset(soft)

    if graph.packed is not None:
        shift = graph.packed_shift
        field = (1 << shift) - 1

        def mask(places) -> int:
            return sum(field << (shift * p) for p in places)

        need = [mask(_supports(v)) for v in vectors.z_list]
        need += [mask(p for p in _supports(v) if p not in drop) for v in vectors.d_list]
        avoid = mask(hard)
        if not soft:
            for i, m in enumerate(graph.packed):
                if not m & avoid and all(m & req for req in need):
                    return TargetChoice(i, graph.q(i))
            return None
        best: Optional[TargetChoice] = None
        for i, m in enumerate(graph.packed):
            if best is not None and graph.q(i) >= best.cost:
                break
            if m & avoid or not all(m & req for req in need):
                continue
            total = graph.q(i)
            for p in soft:
                count = (m >> (shift * p)) & field
                if not count:
                    continue
                if escapes[p] is None:
                    total = None
                    break
                total += count * escapes[p][1]
            if total is not None and (best is None or total < best.cost):
                best = TargetChoice(i, total)
        return best

    need = [_supports(v) for v in vectors.z_list]
    need += [tuple(p for p in _supports(v) if p not in drop) for v in vectors.d_list]
    if not soft:
        for i, m in enumerate(graph.markings):
            if any(m[p] for p in hard):
                continue
            if all(any(m[p] for p in sup) for sup in need):
                return TargetChoice(i, graph.q(i))
        return None
    best = None
    for i, m in enumerate(graph.markings):
        if best is not None and graph.q(i) >= best.cost:
            break
        if any(m[p] for p in hard):
            continue
        if not all(any(m[p] for p in sup) for sup in need):
            continue
        total = graph.q(i)
        for p in soft:
            if not m[p]:
                continue
            if escapes[p] is None:
                total = None
                break
            total += m[p] * escapes[p][1]
        if total is not None and (best is None or total < best.cost):
            best = TargetChoice(i, total)
    return best


def diagnose_infeasibility(graph: BasisGraph, vectors: SpecVectors,
                           escapes: Optional[Sequence] = None) -> Tuple[str, ...]:
    """Name the clause families that no basis marking satisfies alone."""
    g_sup = _supports(vectors.g)
    mobility = len(escapes) if escapes is not None else 0
    soft = frozenset(p for p in g_sup if p < mobility)
    hard = [p for p in g_sup if p >= mobility]
    z_sup = [_supports(v) for v in vectors.z_list]
    d_sup = [tuple(p for p in _supports(v) if p not in soft) for v in vectors.d_list]

    def ever(check) -> bool:
        return any(check(m) for m in graph.markings)

    def clearable(m) -> bool:
        if any(m[p] for p in hard):
            return False
        return all(not m[p] or escapes[p] is not None for p in soft)

    failing = []
    if z_sup and not ever(lambda m: all(any(m[p] for p in s) for s in z_sup)):
        failing.append("trajectory")
    if d_sup and not ever(lambda m: all(any(m[p] for p in s) for s in d_sup)):
        failing.append("final")
    if g_sup and not ever(clearable):
        failing.append("forbidden")
    return tuple(failing) if failing else ("combination",)


def linearize_explanation(qm: MonitoredNet, part: BasisPartition, m,
                          vector) -> Tuple[int, ...]:
    """Order an explanation vector into a fireable implicit sequence,
    choosing the smallest enabled transition id at every step."""
    remaining = {}
    for t, count in vector:
        if t not in part.implicit:
            raise ValueError(f"transition {t} is not implicit")
        remaining[t] = remaining.get(t, 0) + count
    seq = []
    cur = m
    while remaining:
        for t in sorted(remaining):
            if enabled(qm.net, cur, t):
                cur = fire(qm.net, cur, t)
                seq.append(t)
                remaining[t] -= 1
                if not remaining[t]:
                    del remaining[t]
                break
        else:
            raise IntegrityError("explanation vector cannot be ordered from this marking")
    return tuple(seq)


def backtrack(qm: MonitoredNet, part: BasisPartition, graph: BasisGraph,
              target: int) -> Tuple[int, ...]:
    """Abstract firing sequence (explanations expanded) from the root to a
    basis marking; ends exactly at the target, no trailing implicit moves."""
    if not 0 <= target < len(graph.markings):
        raise ValueError(f"unknown basis marking index {target}")
    chain = []
    i = target
    while graph.edges[i] is not None:
        chain.append(i)
        i = graph.edges[i].parent
    seq: List[int] = []
    for i in reversed(chain):
        edge = graph.edges[i]
        parent_marking = graph.markings[edge.parent]
        seq.extend(linearize_explanation(qm, part, parent_marking, edge.explanation))
        seq.append(edge.transition)
    return tuple(seq)


def decompose_agents(net: PetriNet, sigma: Sequence[int],
                     starts: Sequence[int]) -> List[Tuple[int, ...]]:
    """Split a movement firing sequence into per-agent place walks.

    Tokens are anonymous; each move is taken by the lowest-indexed agent
    currently at the source place.
    """
    positions = list(starts)
    paths = [[s] for s in starts]
    for step, t in enumerate(sigma):
        if len(net.pre[t]) != 1 or len(net.post[t]) != 1:
            raise ValueError(f"transition {t} is not a single-token move")
        src = net.pre[t][0]
        dst = net.post[t][0]
        try:
            agent = positions.index(src)
        except ValueError:
            raise IntegrityError(f"step {step}: no agent stands at place {src}") from None
        positions[agent] = dst
        paths[agent].append(dst)
    return [tuple(path) for path in paths]


def plan(env: Environment, spec: Union[BooleanSpec, str],
         offline: Optional[OfflineModel] = None,
         state_cap: Optional[int] = None) -> Union[Plan, Infeasible]:
    """End-to-end planning call. Returns a Plan or an Infeasible result."""
    if isinstance(spec, str):
        spec = parse(spec)
    if offline is None:
        offline = build_offline(env, state_cap=state_cap)
    vectors = compile_vectors(spec, offline.monitored.net,
                              offline.monitored.indicator_of)
    choice = select_target(offline.graph, vectors, offline.escapes)
    if choice is None:
        return Infeasible(diagnose_infeasibility(offline.graph, vectors,
                                                 offline.escapes))

    sigma_m = backtrack(offline.monitored, offline.partition, offline.graph,
                        choice.index)
    sigma_q = lift(offline.simplified, sigma_m)
    run = replay(offline.net, offline.net.initial_marking, sigma_q)

    # Agents left on forbidden final places hop onto anonymous ground.
    target = offline.graph.markings[choice.index]
    hops: List[int] = []
    for p in range(len(offline.escapes)):
        if vectors.g[p] and target[p]:
            hops.extend([offline.escapes[p][0]] * target[p])
    tail = replay(offline.net, run.final, hops)
    total = sequence_cost(offline.net, sigma_q) + sequence_cost(offline.net, hops)
    word = run.word + tail.word[1:]

    # Defensive checks; a corrupt cache is the realistic way to trip these.
    if total != choice.cost or \
            sequence_cost(offline.monitored.net, sigma_m) != offline.graph.q(choice.index):
        raise IntegrityError("abstract and base run costs disagree")
    for i, p in enumerate(offline.monitored.base_place):
        if run.final[p] != target[i]:
            raise IntegrityError("base run does not reproduce the target marking")
    if not holds(spec, word, tail.final, offline.net.labels):
        raise IntegrityError("selected run does not satisfy the formula")

    team = sigma_q + tuple(hops)
    index = {cell: i for i, cell in enumerate(offline.cells)}
    starts = [index[cell] for cell in env.agents]
    place_paths = decompose_agents(offline.net, team, starts)
    cell_paths = tuple(tuple(offline.cells[p] for p in path) for path in place_paths)
    return Plan(
        total_cost=total,
        per_agent_paths=cell_paths,
        team_sequence=team,
        satisfied_trace=word,
    )
