"""Petri net core: immutable net structure, firing semantics, replay.

Places and transitions are dense integer indices. Arcs have unit weight and
are stored sparsely: ``pre[t]`` / ``post[t]`` list the input / output places
of transition ``t``. Markings are plain tuples of non-negative token counts
indexed by place. Costs are exact :class:`fractions.Fraction` values so that
every derived cost in the pipeline is bit-stable; the offline searches scale
them to integers with :func:`integer_costs` and convert back on output.

Places listed in ``clamp_at_one`` are latch places: transitions may produce
into them but never consume from them, and their count saturates at one
token. The movement nets built from grids use no latches; the monitored nets
built by :mod:`tampnet.abstraction` use them for visit indicators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
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
    markings: Tuple[Marking, ...]
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
    """Fire ``sigma`` in order from ``m``.

    Returns every intermediate marking plus the proposition word of the run.
    The word's first element holds the atoms of places occupied at ``m``
    (starting inside a labeled region counts as a visit); each later element
    holds the atoms produced by one step, i.e. the labels of the fired
    transition's output places.
    """
    _check_marking(net, m)
    markings = [m]
    word = [frozenset().union(*(net.labels[p] for p in range(net.num_places) if m[p] > 0))]
    cur = m
    for i, t in enumerate(sigma):
        cur = fire(net, cur, t, step=i)
        markings.append(cur)
        word.append(frozenset().union(*(net.labels[p] for p in net.post[t])))
    return ReplayResult(cur, tuple(markings), tuple(word))


def sequence_cost(net: PetriNet, sigma: Sequence[int]) -> Fraction:
    total = Fraction(0)
    for t in sigma:
        _check_transition(net, t)
        total += net.cost[t]
    return total


def integer_costs(costs: Sequence[Fraction]) -> Tuple[Tuple[int, ...], int]:
    """Exact integer weights for ``costs``: returns ``(weights, scale)`` with
    ``weights[i] == costs[i] * scale``, where ``scale`` is the LCM of the
    denominators. Sums and comparisons of weights then match those of the
    costs exactly; divide by ``scale`` to get a cost back."""
    scale = math.lcm(*(c.denominator for c in costs))
    return tuple(c.numerator * (scale // c.denominator) for c in costs), scale


def _check_transition(net: PetriNet, t) -> None:
    if not isinstance(t, int) or not 0 <= t < net.num_transitions:
        raise ValueError(f"unknown transition id {t!r}")


def _check_marking(net: PetriNet, m: Marking) -> None:
    if len(m) != net.num_places:
        raise ValueError(
            f"marking has {len(m)} entries, net has {net.num_places} places"
        )
