import random
from fractions import Fraction

import pytest

from tampnet import build_offline
from tampnet.errors import FiringError
from tampnet.petri import (Atom, END, PetriNet, VISIT, enabled, fire, replay,
                           sequence_cost)

from conftest import EMPTY, counts_of, hand_net, marking_of, square_env


def _chain():
    # a -> b -> c, unit and 3/2 costs, c labeled
    return hand_net(
        3,
        [((0,), (1,), 1), ((1,), (2,), "3/2")],
        [EMPTY, EMPTY, frozenset({Atom(VISIT, "x"), Atom(END, "x")})],
        (1, 0, 0),
    )


def test_enabled_and_fire():
    net = _chain()
    assert enabled(net, (1, 0, 0), 0)
    assert not enabled(net, (1, 0, 0), 1)
    assert fire(net, (1, 0, 0), 0) == (0, 1, 0)
    assert fire(net, (0, 1, 0), 1) == (0, 0, 1)


def test_fire_refuses_disabled_with_place_and_step():
    net = _chain()
    with pytest.raises(FiringError) as err:
        fire(net, (1, 0, 0), 1, step=4)
    assert err.value.place == 1
    assert err.value.step == 4
    assert "place 1" in str(err.value)


def test_replay_trace_and_word():
    net = _chain()
    run = replay(net, net.initial_counts, (0, 1))
    assert marking_of(net, run.counts) == (0, 0, 1)
    trace = [net.initial_marking]
    for t in (0, 1):
        trace.append(fire(net, trace[-1], t))
    assert tuple(trace) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert run.word[0] == frozenset()
    assert run.word[1] == frozenset()
    assert run.word[2] == {Atom(VISIT, "x"), Atom(END, "x")}


def test_replay_word_starts_with_initially_occupied_labels():
    net = hand_net(2, [((0,), (1,), 1)],
                   [frozenset({Atom(VISIT, "a")}), EMPTY], (2, 0))
    run = replay(net, net.initial_counts, ())
    assert run.word == (frozenset({Atom(VISIT, "a")}),)


def test_sequence_cost_is_exact():
    net = _chain()
    assert sequence_cost(net, (0, 1)) == Fraction(5, 2)
    assert sequence_cost(net, ()) == 0


def test_sequence_cost_sums_integer_weights_to_the_fraction_sum():
    costs = ["1/3", "2/7", "1/2", "3/2", 1]
    net = hand_net(2, [((0,), (1,), c) for c in costs] + [((1,), (0,), c) for c in costs],
                   [EMPTY, EMPTY], (1, 0))
    # hand_net counts the costs at the LCM of their denominators
    assert net.scale == 42
    assert net.weights == (14, 12, 21, 63, 42) * 2
    rng = random.Random("sequence-cost")
    for _ in range(50):
        sigma = [rng.randrange(net.num_transitions) for _ in range(rng.randrange(1, 30))]
        got = sequence_cost(net, sigma)
        assert isinstance(got, Fraction)
        assert got == sum((Fraction(costs[t % 5]) for t in sigma), Fraction(0))
    empty = sequence_cost(net, ())
    assert isinstance(empty, Fraction) and empty == 0
    for bad in (net.num_transitions, -1, "0", 1.0, None):
        with pytest.raises(ValueError, match="unknown transition id"):
            sequence_cost(net, (0, bad))


def _fold_with_fire(net, m, sigma):
    """Final marking and proposition word of ``sigma`` from ``m``, one
    ``fire`` at a time."""
    word = [frozenset().union(*(net.labels[p] for p, c in enumerate(m) if c > 0))]
    for i, t in enumerate(sigma):
        m = fire(net, m, t, step=i)
        word.append(frozenset().union(*(net.labels[p] for p in (net.targets[t], *net.sets[t]))))
    return m, tuple(word)


def _random_run(net, m, rng, steps):
    """Up to ``steps`` transitions, each enabled where it fires."""
    sigma = []
    for _ in range(steps):
        options = [t for t in range(net.num_transitions) if enabled(net, m, t)]
        if not options:
            break
        sigma.append(rng.choice(options))
        m = fire(net, m, sigma[-1])
    return sigma


def _latch_net():
    # place 1 is a labeled latch that starts at one and saturates when set;
    # the first move returns its token to its own place
    return hand_net(3, [((0,), (0, 1), "1/3"), ((0,), (2,), "2/7"), ((2,), (0,), "3/2")],
                    (EMPTY, frozenset({Atom(VISIT, "w")}), frozenset({Atom(VISIT, "v")})),
                    (2, 1, 0), latches={1})


def _replay_nets(demo_offline, plant_offline):
    fractional = square_env(4, [
        {"name": "a", "cells": [[0, 3], [1, 3]], "trajectory_props": ["a"]},
        {"name": "c", "cells": [[2, 2]], "final_props": ["c"]},
    ], agents=[(0, 0), (3, 3)], obstacles=[(1, 1)],
        move_cost={"up": "1/3", "right": "2/7", "down": "1/2", "left": 1})
    off = build_offline(fractional)
    return {"demo-monitored": demo_offline.monitored.net, "fractional": off.net,
            "fractional-monitored": off.monitored.net, "plant": plant_offline.net,
            "latch": _latch_net()}


def test_replay_matches_firing_step_by_step(demo_offline, plant_offline):
    rng = random.Random("replay-vs-fire")
    for name, net in _replay_nets(demo_offline, plant_offline).items():
        for _ in range(25):
            start = net.initial_marking
            prefix = _random_run(net, start, rng, rng.randrange(0, 10))
            start = marking_of(net, replay(net, net.initial_counts, prefix).counts)
            sigma = _random_run(net, start, rng, rng.randrange(0, 60))
            run = replay(net, counts_of(start), sigma)
            assert (marking_of(net, run.counts), run.word) == _fold_with_fire(net, start, sigma), name
            assert sequence_cost(net, sigma) == sum((Fraction(net.weights[t], net.scale)
                                                     for t in sigma), Fraction(0))


def test_replay_from_counts_matches_replay_from_the_marking(demo_offline, plant_offline):
    rng = random.Random("replay-counts")
    for name, net in _replay_nets(demo_offline, plant_offline).items():
        assert net.initial_counts == counts_of(net.initial_marking), name
        assert replay(net, net.initial_counts, ()).counts == net.initial_counts, name
        for _ in range(10):
            prefix = _random_run(net, net.initial_marking, rng, rng.randrange(0, 10))
            start = replay(net, net.initial_counts, prefix)
            m = _fold_with_fire(net, net.initial_marking, prefix)[0]
            assert start.counts == counts_of(m), name
            sigma = _random_run(net, m, rng, rng.randrange(0, 30))
            before = dict(start.counts)
            run = replay(net, start.counts, sigma)
            assert start.counts == before, name
            assert run == replay(net, counts_of(m), sigma), name
            assert marking_of(net, run.counts) == _fold_with_fire(net, m, sigma)[0], name
    net = _chain()
    for bad in ({3: 1}, {-1: 1}, {0: 0}, {"0": 1}):
        with pytest.raises(ValueError, match="counts map"):
            replay(net, bad, ())


def test_replay_refuses_a_full_marking(demo_offline, plant_offline):
    # a marking tuple is never read as a counts map, whatever its entries
    for name, net in _replay_nets(demo_offline, plant_offline).items():
        for sigma in ((), (0,)):
            with pytest.raises((TypeError, ValueError)):
                replay(net, net.initial_marking, sigma)
    net = _chain()
    for m in ((1, 0, 0), (0, 2, 1), [1, 0, 0]):
        with pytest.raises((TypeError, ValueError)):
            replay(net, m, ())


def test_replay_raises_the_firing_error_of_fire(demo_offline, plant_offline):
    rng = random.Random("replay-illegal")
    for name, net in _replay_nets(demo_offline, plant_offline).items():
        for _ in range(10):
            legal = _random_run(net, net.initial_marking, rng, rng.randrange(0, 20))
            m = marking_of(net, replay(net, net.initial_counts, legal).counts)
            disabled = [t for t in range(net.num_transitions) if not enabled(net, m, t)]
            if not disabled:
                continue
            bad = rng.choice(disabled)
            with pytest.raises(FiringError) as expected:
                fire(net, m, bad, step=len(legal))
            with pytest.raises(FiringError) as got:
                replay(net, net.initial_counts, legal + [bad] + legal)
            assert (got.value.transition, got.value.place, got.value.step) \
                == (expected.value.transition, expected.value.place, len(legal)), name
            assert str(got.value) == str(expected.value)
        for bad in (net.num_transitions, -1, "0"):
            with pytest.raises(ValueError, match="unknown transition id"):
                replay(net, net.initial_counts, (bad,))


def test_fire_saturates_clamped_places():
    # the move returns its token to place 0 and sets latch 1
    net = hand_net(2, [((0,), (0, 1), 1)], (EMPTY, EMPTY), (2, 1), latches={1})
    assert net.sets == ((1,),)
    assert fire(net, (2, 1), 0) == (2, 1)
    assert fire(net, (2, 0), 0) == (2, 1)


def _columns(**bad):
    """Constructor arguments of a two-place net with a move each way, at
    costs 1 and 1/2 counted in halves, with the overrides in ``bad``."""
    args = dict(num_places=2, sources=(0, 1), targets=(1, 0), weights=(2, 1), sets=((), ()),
                scale=2, labels=(EMPTY, EMPTY), initial_marking=(1, 0))
    args.update(bad)
    return args


def test_construction_rejects_consumed_clamped_place():
    # a move may neither take from a latch nor move into one
    for sources, targets in (((0, 1), (1, 0)), ((0, 0), (0, 1))):
        with pytest.raises(ValueError, match="^transition [01] moves a token out of or into "
                                             "a latch place$"):
            PetriNet(**_columns(sources=sources, targets=targets, initial_marking=(1, 1),
                                latches=frozenset({1})))


# (overrides of the two-move net, the message naming its fault)
MALFORMED = [
    (dict(weights=(2, 0)), "transition 1 must have positive cost"),
    (dict(weights=(-1, 1)), "transition 0 must have positive cost"),
    (dict(sources=(1, 0)), "transition 1 leaves a lower place than the transition before it"),
    (dict(num_places=3, labels=(EMPTY,) * 3, initial_marking=(1, 0, 0), targets=(1, 2),
          latches=frozenset({2})), "transition 1 moves a token out of or into a latch place"),
    (dict(targets=(5, 0)), "transition 0 references unknown place 5"),
    (dict(initial_marking=(1,)), "initial marking size does not match place count"),
    (dict(initial_marking=(1, -1)), "initial marking must be non-negative"),
    (dict(targets=(1, 0, 1)), "sources, targets, weights and sets must have one entry per transition"),
    (dict(weights=(1,)), "sources, targets, weights and sets must have one entry per transition"),
    (dict(sets=((),)), "sources, targets, weights and sets must have one entry per transition"),
    (dict(labels=(EMPTY,)), "labels must have one entry per place"),
    (dict(latches=frozenset({2})), "latch place 2 does not exist"),
    (dict(latches=frozenset({-1})), "latch place -1 does not exist"),
]


@pytest.mark.parametrize("bad, message", MALFORMED,
                         ids=[f"bad{i}" for i in range(len(MALFORMED))])
def test_construction_rejects_malformed_nets(bad, message):
    with pytest.raises(ValueError) as err:
        PetriNet(**_columns(**bad))
    assert str(err.value) == message


# three moves over places 0, 1 and latch 2: (sources, targets, weights,
# the message). The first bad transition is named, whatever its fault and
# however many transitions after it are bad too; a transition's latches
# are given in ``post`` after its target, as in hand_net's arcs.
@pytest.mark.parametrize("pre, post, cost, message", [
    ((0, 1, 1), ((1,), (0,), (9,)), (1, 0, 1), "transition 1 must have positive cost"),
    ((0, 1, 0), ((1,), (0,), (0,)), (-1, 1, 1), "transition 0 must have positive cost"),
    ((0, 1, 1), ((1,), (-2,), (1, 0)), (1, 1, 0), "transition 1 references unknown place -2"),
    ((0, 1, 7), ((1,), (0,), (1,)), (1, 1, 1), "transition 2 references unknown place 7"),
    ((0, 1, 1), ((1,), (0,), (0, 2)), (1, 0, -1), "transition 1 must have positive cost"),
    ((0, 1, 0), ((1, 2), (0, 2, 2), (1,)), (1, 1, 0),
     "transition 1 repeats a latch, lists them out of order or sets a place that is no latch"),
])
def test_construction_names_the_first_bad_transition(pre, post, cost, message):
    with pytest.raises(ValueError) as err:
        PetriNet(num_places=3, sources=pre, targets=tuple(p[0] for p in post),
                 weights=cost, scale=1, labels=(EMPTY,) * 3, initial_marking=(1, 0, 0),
                 sets=tuple(p[1:] for p in post), latches=frozenset({2}))
    assert str(err.value) == message


def test_construction_raises_the_comparison_error_of_a_non_numeric_cost():
    with pytest.raises(TypeError):
        PetriNet(**_columns(weights=(1, "0")))
    # a weight is an int: a Fraction, even a whole one, is refused
    with pytest.raises(TypeError, match="^transition 1 has a weight of type Fraction, not int$"):
        PetriNet(**_columns(weights=(1, Fraction(2))))


def test_move_places_list_the_ends_of_single_token_moves():
    # a net is its move columns: each move's source and target place
    net = _chain()
    assert (net.sources, net.targets, net.weights, net.scale) == ((0, 1), (1, 2), (2, 3), 2)
    assert net.sets == ((), ()) and net.latches == frozenset()
    # a join and a fork are no moves: no net expresses them
    with pytest.raises(ValueError, match="^arc 1 is no move"):
        hand_net(4, [((0,), (1,), 1), ((0, 1), (2,), 1)], [EMPTY] * 4, (1, 1, 0, 0))
    with pytest.raises(ValueError, match="^arc 0 is no move"):
        hand_net(4, [((2,), (1, 3), 1)], [EMPTY] * 4, (1, 1, 0, 0))


# (overrides of the move columns, the message naming their fault)
MOVE_FAULTS = [
    (dict(sources=(0, 2)), "transition 1 references unknown place 2"),
    (dict(sources=(-1, 1)), "transition 0 references unknown place -1"),
    (dict(targets=(2, 5)), "transition 0 references unknown place 2"),
    (dict(targets=(1, -3)), "transition 1 references unknown place -3"),
    (dict(weights=(1, 0)), "transition 1 must have positive cost"),
    (dict(weights=(-1, 1)), "transition 0 must have positive cost"),
    (dict(weights=(0, -1)), "transition 0 must have positive cost"),
    (dict(labels=(EMPTY,)), "labels must have one entry per place"),
    (dict(labels=(EMPTY,) * 3), "labels must have one entry per place"),
    (dict(initial_marking=(1,)), "initial marking size does not match place count"),
    (dict(initial_marking=(1, 0, 0)), "initial marking size does not match place count"),
    (dict(initial_marking=(1, -1)), "initial marking must be non-negative"),
]
# the faults the form adds: the scale, the latch columns and the refusals
# that keep every marking packable
COLUMN_FAULTS = [
    (dict(scale=0), "the cost scale must be a positive int, not 0"),
    (dict(scale=Fraction(1)), "the cost scale must be a positive int, not Fraction(1, 1)"),
    (dict(num_places=3, labels=(EMPTY,) * 3, initial_marking=(1, 0, 2), latches=frozenset({2})),
     "latch place 2 starts above 1"),
    (dict(initial_marking=(1 << 63, 1 << 63)), "the initial marking holds 2**64 tokens or more"),
    (dict(num_places=3, labels=(EMPTY,) * 3, initial_marking=(1, 0, 0),
          sets=((2,), (1,)), latches=frozenset({2})),
     "transition 1 repeats a latch, lists them out of order or sets a place that is no latch"),
    (dict(num_places=4, labels=(EMPTY,) * 4, initial_marking=(1, 0, 0, 0),
          sets=((3, 2), ()), latches=frozenset({2, 3})),
     "transition 0 repeats a latch, lists them out of order or sets a place that is no latch"),
]


@pytest.mark.parametrize("bad, message", MOVE_FAULTS + COLUMN_FAULTS,
                         ids=[f"bad{i}" for i in range(len(MOVE_FAULTS + COLUMN_FAULTS))])
def test_from_moves_refuses_malformed_columns(bad, message):
    # a net is made from its move columns, and each fault is named
    with pytest.raises(ValueError) as err:
        PetriNet(**_columns(**bad))
    assert str(err.value) == message


def test_construction_accepts_a_net_without_transitions():
    net = PetriNet(num_places=2, sources=(), targets=(), weights=(), sets=(), scale=1,
                   labels=(EMPTY, EMPTY), initial_marking=(1, 0))
    assert net.num_transitions == 0 and net.sets == ()
    assert sequence_cost(net, ()) == 0
    assert replay(net, net.initial_counts, ()).counts == {0: 1}
    empty = PetriNet(num_places=0, sources=(), targets=(), weights=(), sets=(), scale=1,
                     labels=(), initial_marking=())
    assert empty.num_places == 0 and empty.num_transitions == 0


def test_sequence_checks_name_the_first_unknown_transition():
    net = _chain()
    for sigma, bad in (((0, 7, -1), 7), ((0, 1, "1", 9), "1"), ((-1, 0), -1),
                       ((0, 1, None), None), ((0, 1.0, 2), 1.0)):
        for check in (lambda s: sequence_cost(net, s),
                      lambda s: replay(net, net.initial_counts, s)):
            with pytest.raises(ValueError) as err:
                check(sigma)
            assert str(err.value) == f"unknown transition id {bad!r}"
    # the whole sequence is checked before its first step fires
    with pytest.raises(ValueError, match="unknown transition id 99"):
        replay(net, net.initial_counts, (1, 99))


def test_bad_transition_and_marking_are_rejected():
    net = _chain()
    with pytest.raises(ValueError):
        enabled(net, (1, 0, 0), 9)
    with pytest.raises(ValueError):
        fire(net, (1, 0), 0)
