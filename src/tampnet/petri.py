"""Petri net core: immutable net structure, firing semantics, replay.

Every net of the pipeline is a state machine with visit latches: each
transition is a move that takes one token from one place and puts it on
another, and may set latch places, which count at most one token and
are never taken from. So a net is its move columns: per move a source
place, a target place, an integer weight and the ascending latch places it
sets (empty on every net but the monitored one), plus the labels, the
initial marking and the set of latch places. Places and transitions are
dense integer indices, and moves are numbered in ascending source order.

Costs are the integer weights over one ``scale`` that every net of a model
shares: the movement net's, the LCM of the denominators of the direction
costs its moves use. A reduced cost is a sum of movement weights, so it is
exact at that scale too, and every search, sum and comparison runs in
ints; a plan's output cost is the :class:`fractions.Fraction` that
``planner.select_target`` makes of the tree's integer cost.

Markings are plain tuples of non-negative token counts indexed by place;
:func:`fire` and :func:`enabled` take them, and :func:`replay` takes the
``{place: count}`` map of a marking's occupied places instead. These
three and :func:`sequence_cost` are the reference semantics that the
tests check the planner against: the pipeline calls none of them, as
``planner.walk_route`` fires and checks a plan's route itself, and
:func:`tampnet.taskspec.holds` checks the formula on the run it makes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain, repeat
from types import MappingProxyType
from typing import Dict, Mapping, NamedTuple, Optional, Sequence, Tuple

from .errors import FiringError

Marking = Tuple[int, ...]

VISIT = "visit"
END = "end"

# the one rule for a proposition name: ASCII letters, digits and "_"
NAME_RE = re.compile(r"[A-Za-z0-9_]+")


class Atom(NamedTuple):
    """One atomic proposition attached to a place.

    ``kind`` is :data:`VISIT` for trajectory propositions (satisfied by ever
    entering a place that carries the atom) or :data:`END` for final-state
    propositions (satisfied by occupying such a place when the run stops).
    """

    kind: str
    name: str

    def text(self) -> str:
        return f"{self.kind}({self.name})"


class ReplayResult(NamedTuple):
    """A finished run: ``counts`` maps each place occupied at its end to its
    token count, and ``word`` is its proposition word (see :func:`replay`)."""

    counts: Dict[int, int]
    word: Tuple[frozenset, ...]


@dataclass(frozen=True)
class PetriNet:
    """Immutable state machine net with visit latches.

    Transition ``t`` is a move: it takes one token from place
    ``sources[t]``, puts one on place ``targets[t]`` and sets to one each
    latch place of ``sets[t]``, ascending and empty on every move but
    those of a monitored net. It costs ``weights[t] / scale``; every net of
    one model shares its ``scale``. Moves are numbered in ascending source
    order. ``latches`` are the latch places: no move takes from them or
    moves into them, and each starts at 0 or 1. ``labels[p]`` is the
    (possibly empty) frozenset of :class:`Atom` carried by place ``p``.
    ``initial_marking`` must be non-negative, sized to the place count and
    hold fewer than 2**64 tokens.
    """

    num_places: int
    sources: Tuple[int, ...]
    targets: Tuple[int, ...]
    weights: Tuple[int, ...]
    sets: Tuple[Tuple[int, ...], ...]
    scale: int
    labels: Tuple[frozenset, ...]
    initial_marking: Marking
    latches: frozenset = field(default=frozenset())

    def __post_init__(self):
        """Check the net in passes that run in C; when one fails, raise
        the ValueError naming the first malformed transition, whatever its
        fault, or a TypeError for a weight that is not an int."""
        sources, targets, weights, sets = self.sources, self.targets, self.weights, self.sets
        n = len(sources)
        if not len(targets) == len(weights) == len(sets) == n:
            raise ValueError("sources, targets, weights and sets must have one entry "
                             "per transition")
        places, marking, latches = self.num_places, self.initial_marking, self.latches
        if len(self.labels) != places:
            raise ValueError("labels must have one entry per place")
        if len(marking) != places:
            raise ValueError("initial marking size does not match place count")
        if min(marking, default=0) < 0:
            raise ValueError("initial marking must be non-negative")
        if sum(marking) >= 1 << 64:
            raise ValueError("the initial marking holds 2**64 tokens or more")
        if type(self.scale) is not int or self.scale < 1:
            raise ValueError(f"the cost scale must be a positive int, not {self.scale!r}")
        if latches and not (0 <= min(latches) and max(latches) < places):
            raise ValueError(f"latch place {min(p for p in latches if not 0 <= p < places)} "
                             "does not exist")
        if max(map(marking.__getitem__, latches), default=0) > 1:
            raise ValueError(f"latch place {min(p for p in latches if marking[p] > 1)} "
                             f"starts above 1")

        # (first bad transition, its fault), one entry per failed pass
        faults = []
        # one sort of an ascending column is one pass of C comparisons, and
        # the sorted column has the sources' bounds at its ends
        ordered = sorted(sources)
        ascending = ordered == list(sources)
        if n and not (0 <= ordered[0] and 0 <= min(targets)
                      and ordered[-1] < places and max(targets) < places):
            t, p = next((t, p) for t, move in enumerate(zip(sources, targets))
                        for p in move if not 0 <= p < places)
            faults.append((t, f"references unknown place {p}"))
        if min(weights, default=1) <= 0:
            faults.append((next(t for t, w in enumerate(weights) if w <= 0),
                           "must have positive cost"))
        if not ascending:
            faults.append((next(t for t in range(1, n) if sources[t] < sources[t - 1]),
                           "leaves a lower place than the transition before it"))
        if latches and not (latches.isdisjoint(sources) and latches.isdisjoint(targets)):
            faults.append((next(t for t, move in enumerate(zip(sources, targets))
                                if not latches.isdisjoint(move)),
                           "moves a token out of or into a latch place"))
        if any(sets) and not (latches.issuperset(chain.from_iterable(sets))
                              and list(map(tuple, map(sorted, map(set, sets)))) == list(sets)):
            faults.append((next(t for t, s in enumerate(sets)
                                if not latches.issuperset(s) or tuple(sorted(set(s))) != s),
                           "repeats a latch, lists them out of order or sets a place "
                           "that is no latch"))
        if faults:
            t, fault = min(faults)
            raise ValueError(f"transition {t} {fault}")
        if not all(map(isinstance, weights, repeat(int))):
            t = next(t for t, w in enumerate(weights) if not isinstance(w, int))
            raise TypeError(f"transition {t} has a weight of type {type(weights[t]).__name__}, "
                            "not int")

    @property
    def num_transitions(self) -> int:
        return len(self.sources)

    @cached_property
    def end_places(self) -> Mapping[str, Tuple[int, ...]]:
        """``{name: places}`` for each final proposition the labels carry:
        the ascending places labeled ``end(name)``, worked out on first use
        as a read-only map."""
        places: Dict[str, list] = {}
        for p, labels in enumerate(self.labels):
            for kind, name in labels:
                if kind == END:
                    places.setdefault(name, []).append(p)
        return MappingProxyType({name: tuple(ps) for name, ps in places.items()})

    @cached_property
    def initial_counts(self) -> Mapping[int, int]:
        """The initial marking as a read-only ``{place: count}`` map of its
        occupied places, worked out on first use."""
        return MappingProxyType({p: c for p, c in enumerate(self.initial_marking) if c})


def enabled(net: PetriNet, m: Marking, t: int) -> bool:
    """True when the source place of ``t`` holds a token under ``m``."""
    _check_transition(net, t)
    _check_marking(net, m)
    return m[net.sources[t]] >= 1


def fire(net: PetriNet, m: Marking, t: int, step: Optional[int] = None) -> Marking:
    """Fire ``t`` from ``m``; raises :class:`FiringError` when not enabled."""
    _check_transition(net, t)
    _check_marking(net, m)
    p = net.sources[t]
    if m[p] < 1:
        raise FiringError(t, p, m[p], step=step)
    out = list(m)
    out[p] -= 1
    out[net.targets[t]] += 1
    for latch in net.sets[t]:
        out[latch] = 1
    return tuple(out)


def replay(net: PetriNet, counts: Mapping[int, int],
           sigma: Sequence[int]) -> ReplayResult:
    """Fire ``sigma`` in order from ``counts``, with the checks of :func:`fire`.

    ``counts`` is the ``{place: count}`` map of the occupied places of the
    start marking, such as ``net.initial_counts`` or an earlier result's
    ``counts``; it is copied, not changed. Returns the counts of the places
    occupied at the end and the proposition word of the run. The word's
    first element holds the atoms of places occupied at the start (starting
    inside a labeled region counts as a visit); each later element holds
    the atoms produced by one step, i.e. the labels of the fired
    transition's target and of the latches it sets.

    Only occupied places are tracked: a replay costs the route's steps
    plus the occupied places, and reads no other place.
    """
    counts = dict(counts)
    if not all(isinstance(p, int) and 0 <= p < net.num_places and c >= 1
               for p, c in counts.items()):
        raise ValueError("a counts map must take places of the net to positive counts")
    _check_transitions(net, sigma)
    sources, targets, sets, labels = net.sources, net.targets, net.sets, net.labels
    word = [frozenset().union(*map(labels.__getitem__, counts))]
    for i, t in enumerate(sigma):
        p = sources[t]
        tokens = counts.get(p, 0)
        if tokens < 1:
            raise FiringError(t, p, tokens, step=i)
        if tokens == 1:
            del counts[p]
        else:
            counts[p] = tokens - 1
        x = targets[t]
        counts[x] = counts.get(x, 0) + 1
        latched = sets[t]
        for latch in latched:
            counts[latch] = 1
        word.append(frozenset().union(labels[x], *map(labels.__getitem__, latched))
                    if latched else labels[x])
    return ReplayResult(counts, tuple(word))


def sequence_cost(net: PetriNet, sigma: Sequence[int]) -> Fraction:
    """Exact total cost of ``sigma``, summed in the net's integer weights;
    raises ValueError for an unknown transition id."""
    _check_transitions(net, sigma)
    return Fraction(sum(map(net.weights.__getitem__, sigma)), net.scale)


def _check_transition(net: PetriNet, t) -> None:
    if not isinstance(t, int) or not 0 <= t < len(net.sources):
        raise ValueError(f"unknown transition id {t!r}")


def _check_transitions(net: PetriNet, sigma: Sequence[int]) -> None:
    for t in sigma:
        _check_transition(net, t)


def _check_marking(net: PetriNet, m: Marking) -> None:
    if len(m) != net.num_places:
        raise ValueError(
            f"marking has {len(m)} entries, net has {net.num_places} places"
        )
