"""Petri net core: immutable net structure, firing semantics, replay.

Places and transitions are dense integer indices. Arcs have unit weight and
are stored sparsely: ``pre[t]`` / ``post[t]`` list the input / output places
of transition ``t``. Markings are plain tuples of non-negative token counts
indexed by place. Costs are exact :class:`fractions.Fraction` values so that
every derived cost in the pipeline is bit-stable; the searches and
:func:`sequence_cost` sum them as the integers of
:attr:`PetriNet.integer_costs` and convert back on output.

Places listed in ``clamp_at_one`` are latch places: transitions may produce
into them but never consume from them, and their count saturates at one
token. The movement nets built from grids use no latches; the monitored nets
built by :mod:`tampnet.abstraction` use them for visit indicators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import compress
from typing import NamedTuple, Optional, Sequence, Tuple

from .errors import FiringError

Marking = Tuple[int, ...]

VISIT = "visit"
END = "end"


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
    final: Marking
    word: Tuple[frozenset, ...]


@dataclass(frozen=True)
class PetriNet:
    """Immutable Petri net with unit arcs and per-transition costs.

    ``labels[p]`` is the (possibly empty) frozenset of :class:`Atom` carried
    by place ``p``. ``initial_marking`` must be non-negative and sized to the
    place count.
    """

    num_places: int
    pre: Tuple[Tuple[int, ...], ...]
    post: Tuple[Tuple[int, ...], ...]
    cost: Tuple[Fraction, ...]
    labels: Tuple[frozenset, ...]
    initial_marking: Marking
    clamp_at_one: frozenset = field(default=frozenset())

    def __post_init__(self):
        n = len(self.pre)
        if len(self.post) != n or len(self.cost) != n:
            raise ValueError("pre, post and cost must have one entry per transition")
        if len(self.labels) != self.num_places:
            raise ValueError("labels must have one entry per place")
        if len(self.initial_marking) != self.num_places:
            raise ValueError("initial marking size does not match place count")
        if any(c < 0 for c in self.initial_marking):
            raise ValueError("initial marking must be non-negative")
        for t in range(n):
            if not self.pre[t] or not self.post[t]:
                raise ValueError(f"transition {t} must have input and output places")
            for p in self.pre[t] + self.post[t]:
                if not 0 <= p < self.num_places:
                    raise ValueError(f"transition {t} references unknown place {p}")
            if len(set(self.pre[t])) != len(self.pre[t]) or len(set(self.post[t])) != len(self.post[t]):
                raise ValueError(f"transition {t} repeats a place in an arc list")
            if self.cost[t] <= 0:
                raise ValueError(f"transition {t} must have positive cost")
        for p in self.clamp_at_one:
            if not 0 <= p < self.num_places:
                raise ValueError(f"clamped place {p} does not exist")
        consumed = {p for ps in self.pre for p in ps}
        bad = consumed & set(self.clamp_at_one)
        if bad:
            raise ValueError(f"clamped places may not be consumed from: {sorted(bad)}")

    @property
    def num_transitions(self) -> int:
        return len(self.pre)

    @cached_property
    def integer_costs(self) -> Tuple[Tuple[int, ...], int]:
        """Exact integer weights of the costs, computed on first use:
        ``(weights, scale)`` with ``weights[t] == cost[t] * scale``, where
        ``scale`` is the LCM of the denominators. Sums and comparisons of
        weights match those of the costs exactly; divide by ``scale`` to
        get a cost back."""
        scale = math.lcm(*(c.denominator for c in self.cost))
        return tuple(c.numerator * (scale // c.denominator) for c in self.cost), scale

    @cached_property
    def place_ids(self) -> Tuple[int, ...]:
        """``tuple(range(num_places))``, kept so that ``compress`` over a
        marking finds its occupied places without making an int per place."""
        return tuple(range(self.num_places))


def enabled(net: PetriNet, m: Marking, t: int) -> bool:
    """True when every input place of ``t`` holds a token under ``m``."""
    _check_transition(net, t)
    _check_marking(net, m)
    return all(m[p] >= 1 for p in net.pre[t])


def fire(net: PetriNet, m: Marking, t: int, step: Optional[int] = None) -> Marking:
    """Fire ``t`` from ``m``; raises :class:`FiringError` when not enabled."""
    _check_transition(net, t)
    _check_marking(net, m)
    for p in net.pre[t]:
        if m[p] < 1:
            raise FiringError(t, p, m[p], step=step)
    out = list(m)
    for p in net.pre[t]:
        out[p] -= 1
    for p in net.post[t]:
        out[p] += 1
        if p in net.clamp_at_one and out[p] > 1:
            out[p] = 1
    return tuple(out)


def replay(net: PetriNet, m: Marking, sigma: Sequence[int]) -> ReplayResult:
    """Fire ``sigma`` in order from ``m``, with the checks of :func:`fire`.

    Returns the final marking and the proposition word of the run. The
    word's first element holds the atoms of places occupied at ``m``
    (starting inside a labeled region counts as a visit); each later element
    holds the atoms produced by one step, i.e. the labels of the fired
    transition's output places.

    Only occupied places are tracked, so a step costs the size of its
    transition's arcs; ``m`` is read and the final marking built once.
    """
    _check_marking(net, m)
    pre, post, labels, clamped = net.pre, net.post, net.labels, net.clamp_at_one
    occupied = list(compress(net.place_ids, m))
    counts = dict(zip(occupied, map(m.__getitem__, occupied)))
    word = [frozenset().union(*map(labels.__getitem__, occupied))]
    for i, t in enumerate(sigma):
        _check_transition(net, t)
        for p in pre[t]:
            if counts.get(p, 0) < 1:
                raise FiringError(t, p, counts.get(p, 0), step=i)
        for p in pre[t]:
            if counts[p] == 1:
                del counts[p]
            else:
                counts[p] -= 1
        for p in post[t]:
            counts[p] = 1 if p in clamped else counts.get(p, 0) + 1
        word.append(frozenset().union(*map(labels.__getitem__, post[t])))
    final = [0] * net.num_places
    for p, c in counts.items():
        final[p] = c
    return ReplayResult(tuple(final), tuple(word))


def sequence_cost(net: PetriNet, sigma: Sequence[int]) -> Fraction:
    """Exact total cost of ``sigma``, summed in the net's integer weights;
    raises ValueError for an unknown transition id."""
    weights, scale = net.integer_costs
    total = 0
    for t in sigma:
        _check_transition(net, t)
        total += weights[t]
    return Fraction(total, scale)


def _check_transition(net: PetriNet, t) -> None:
    if not isinstance(t, int) or not 0 <= t < len(net.pre):
        raise ValueError(f"unknown transition id {t!r}")


def _check_marking(net: PetriNet, m: Marking) -> None:
    if len(m) != net.num_places:
        raise ValueError(
            f"marking has {len(m)} entries, net has {net.num_places} places"
        )
