"""Petri net core: immutable net structure, firing semantics, replay.

Places and transitions are dense integer indices. Arcs have unit weight and
are stored sparsely: ``pre[t]`` / ``post[t]`` list the input / output places
of transition ``t``. Markings are plain tuples of non-negative token counts
indexed by place; :func:`fire` and :func:`enabled` take them. A route is
checked from the ``{place: count}`` map of a marking's occupied places
instead: :func:`replay` and :func:`tampnet.taskspec.holds` take only that
form, so that checking a route reads the places its tokens touch and no
others.
Costs are exact :class:`fractions.Fraction` values so that every derived
cost in the pipeline is bit-stable; the searches and :func:`sequence_cost`
sum them as the integers of :attr:`PetriNet.integer_costs` and convert
back on output.

Places listed in ``clamp_at_one`` are latch places: transitions may produce
into them but never consume from them, and their count saturates at one
token. The movement nets built from grids use no latches; the monitored nets
built by :mod:`tampnet.abstraction` use them for visit indicators.

A net is made in one of two ways. The constructor takes the arc lists and
costs as they are and suits any net: the latch-carrying monitored net, the
reduced net and hand-built ones. :meth:`PetriNet.from_moves` takes a net
whose every transition is a one-token move as columns (source, target, cost
kind) and makes the same checks in passes that run in C; it fills
``move_places`` and ``integer_costs`` from the columns, so nothing reads
the arc lists or the ``Fraction`` costs per move. :func:`tampnet.grid.env_to_pn`
builds every movement net this way.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain, repeat
from operator import attrgetter, mul
from types import MappingProxyType
from typing import Dict, Mapping, NamedTuple, Optional, Sequence, Tuple

from .errors import FiringError

Marking = Tuple[int, ...]

VISIT = "visit"
END = "end"

_numerator = attrgetter("numerator")
_denominator = attrgetter("denominator")

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
        _check_places(self.num_places, self.labels, self.initial_marking)
        try:
            valid = self._transitions_look_valid()
        except (AttributeError, TypeError):
            valid = False
        if not valid:
            self._check_each_transition()
        for p in self.clamp_at_one:
            if not 0 <= p < self.num_places:
                raise ValueError(f"clamped place {p} does not exist")
        bad = self.clamp_at_one and self.clamp_at_one.intersection(chain.from_iterable(self.pre))
        if bad:
            raise ValueError(f"clamped places may not be consumed from: {sorted(bad)}")

    def _transitions_look_valid(self) -> bool:
        """The checks of ``_check_each_transition`` over every transition at
        once, in passes that run in C: True when all of them hold."""
        pre, post = self.pre, self.post
        if not (all(pre) and all(post)):
            return False
        places = set(chain.from_iterable(pre))
        places.update(chain.from_iterable(post))
        if places and not (0 <= min(places) and max(places) < self.num_places):
            return False
        for arcs in (pre, post):
            # only an arc list of two or more places can repeat one
            if max(map(len, arcs), default=0) > 1 and \
                    list(map(len, map(frozenset, arcs))) != list(map(len, arcs)):
                return False
        return min(map(_numerator, self.cost), default=1) > 0

    def _check_each_transition(self) -> None:
        """Raise the ValueError naming the first malformed transition."""
        for t in range(len(self.pre)):
            if not self.pre[t] or not self.post[t]:
                raise ValueError(f"transition {t} must have input and output places")
            for p in self.pre[t] + self.post[t]:
                if not 0 <= p < self.num_places:
                    raise ValueError(f"transition {t} references unknown place {p}")
            if len(set(self.pre[t])) != len(self.pre[t]) or len(set(self.post[t])) != len(self.post[t]):
                raise ValueError(f"transition {t} repeats a place in an arc list")
            if self.cost[t] <= 0:
                raise ValueError(f"transition {t} must have positive cost")

    @classmethod
    def from_moves(cls, num_places: int, sources: Sequence[int], targets: Sequence[int],
                   palette: Sequence[Fraction], kinds: Sequence[int],
                   labels: Sequence[frozenset], initial_marking: Marking) -> PetriNet:
        """The latch-free net whose transition ``t`` moves one token from
        place ``sources[t]`` to place ``targets[t]`` at cost
        ``palette[kinds[t]]``.

        The checks are the constructor's, made over the columns in passes
        that run in C, and a fault raises the ValueError the constructor
        would raise for it, or one naming a kind outside the palette. Every
        arc list is a one-place tuple, shared by the moves into or out of
        that place. ``move_places`` is the two place columns, and
        ``integer_costs`` is worked out from the palette entries that
        ``kinds`` uses, so each equals what its property would work out.
        """
        n = len(sources)
        if len(targets) != n or len(kinds) != n:
            raise ValueError("sources, targets and kinds must have one entry per transition")
        _check_places(num_places, labels, initial_marking)
        if n and not (0 <= min(sources) and 0 <= min(targets)
                      and max(sources) < num_places and max(targets) < num_places):
            t, p = next((t, p) for t, move in enumerate(zip(sources, targets))
                        for p in move if not 0 <= p < num_places)
            raise ValueError(f"transition {t} references unknown place {p}")
        used = sorted(set(kinds))
        if used and not (0 <= used[0] and used[-1] < len(palette)):
            raise ValueError(f"a move's cost kind is outside the palette of {len(palette)}")
        bad = [k for k in used if palette[k] <= 0]
        if bad:
            raise ValueError(f"transition {min(map(kinds.index, bad))} must have positive cost")
        scale = math.lcm(*{palette[k].denominator for k in used})
        weight = {k: palette[k].numerator * (scale // palette[k].denominator) for k in used}
        arc = tuple(zip(range(num_places))).__getitem__
        net = cls.__new__(cls)
        for name, value in (("num_places", num_places),
                            ("pre", tuple(map(arc, sources))),
                            ("post", tuple(map(arc, targets))),
                            ("cost", tuple(map(palette.__getitem__, kinds))),
                            ("labels", tuple(labels)),
                            ("initial_marking", tuple(initial_marking)),
                            ("clamp_at_one", frozenset()),
                            # the derived tables, set where their properties cache them
                            ("move_places", (tuple(sources), tuple(targets))),
                            ("integer_costs", (tuple(map(weight.__getitem__, kinds)), scale))):
            object.__setattr__(net, name, value)
        return net

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
        denominators = list(map(_denominator, self.cost))
        scale = math.lcm(*set(denominators))
        factors = map(scale.__floordiv__, denominators)
        return tuple(map(mul, map(_numerator, self.cost), factors)), scale

    @cached_property
    def move_places(self) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """``(sources, targets)``, worked out on first use: the input and the
        output place of each transition that is a single-token move, and -1
        for both at any other transition."""
        moves = [len(ps) == len(qs) == 1 for ps, qs in zip(self.pre, self.post)]
        return (tuple(ps[0] if move else -1 for ps, move in zip(self.pre, moves)),
                tuple(qs[0] if move else -1 for qs, move in zip(self.post, moves)))

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
    transition's output places.

    Only occupied places are tracked: a replay costs the route's steps,
    each the size of its transition's arcs, plus the occupied places, and
    reads no other place.
    """
    counts = dict(counts)
    if not all(isinstance(p, int) and 0 <= p < net.num_places and c >= 1
               for p, c in counts.items()):
        raise ValueError("a counts map must take places of the net to positive counts")
    _check_transitions(net, sigma)
    pre, post, labels, clamped = net.pre, net.post, net.labels, net.clamp_at_one
    word = [frozenset().union(*map(labels.__getitem__, counts))]
    for i, t in enumerate(sigma):
        for p in pre[t]:
            if counts.get(p, 0) < 1:
                raise FiringError(t, p, counts.get(p, 0), step=i)
        for p in pre[t]:
            if counts[p] == 1:
                del counts[p]
            else:
                counts[p] -= 1
        out = post[t]
        for p in out:
            counts[p] = 1 if p in clamped else counts.get(p, 0) + 1
        word.append(labels[out[0]] if len(out) == 1
                    else frozenset().union(*map(labels.__getitem__, out)))
    return ReplayResult(counts, tuple(word))


def sequence_cost(net: PetriNet, sigma: Sequence[int]) -> Fraction:
    """Exact total cost of ``sigma``, summed in the net's integer weights;
    raises ValueError for an unknown transition id."""
    _check_transitions(net, sigma)
    weights, scale = net.integer_costs
    return Fraction(sum(map(weights.__getitem__, sigma)), scale)


def _check_places(num_places: int, labels: Sequence[frozenset], initial_marking: Marking) -> None:
    """The checks of a net's per-place fields, shared by both constructors."""
    if len(labels) != num_places:
        raise ValueError("labels must have one entry per place")
    if len(initial_marking) != num_places:
        raise ValueError("initial marking size does not match place count")
    if min(initial_marking, default=0) < 0:
        raise ValueError("initial marking must be non-negative")


def _check_transition(net: PetriNet, t) -> None:
    if not isinstance(t, int) or not 0 <= t < len(net.pre):
        raise ValueError(f"unknown transition id {t!r}")


def _check_transitions(net: PetriNet, sigma: Sequence[int]) -> None:
    """Raise the ValueError of ``_check_transition`` for the first bad id in
    ``sigma``, after checking every id at once in passes that run in C."""
    if sigma and not (all(map(isinstance, sigma, repeat(int)))
                      and 0 <= min(sigma) and max(sigma) < len(net.pre)):
        for t in sigma:
            _check_transition(net, t)


def _check_marking(net: PetriNet, m: Marking) -> None:
    if len(m) != net.num_places:
        raise ValueError(
            f"marking has {len(m)} entries, net has {net.num_places} places"
        )
