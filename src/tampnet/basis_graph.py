"""Min-cost basis reachability tree over a monitored net.

Every transition of the monitored net moves one token out of one place, and
every firing is a graph edge: in the reduced net each abstract transition
moves into a labeled place, which carries a visit latch or an end label, so
no move can be folded away. The builder runs a lowest-cost-first expansion
over the reachable markings, so each marking is finalized with its minimal
accumulated cost q and exactly one parent edge; the result is a tree with
N markings and N - 1 edges. Markings are packed into one integer each:
every net fits that layout, since its moves are numbered by source place,
its latches hold 0 or 1 and its token total, which no move changes, is
below 2**64. While the tree grows, the search splits each marking into a
placement, its plain fields, numbered densely, and a mask of its latch
classes, and keys it by the small int ``placement id << class count |
mask``. ``_layout`` alone decides that split: it groups the latches into
classes and gives each move its effect on the placement and its class
bits. A latch class is a set of latch places that always hold the same
value, such as the latches of several visit propositions on one region; a
latch that never changes belongs to none. Latches are only ever set, so
the moves out of a placement, and the placements they lead to, are worked
out once and reused for every mask the placement meets. The search state is a flat list indexed by that key, so
its size is placements times 2^classes; it is bounded by a fixed multiple
of the state cap, and a net whose placements meet few of their masks fails
with StateBudgetError rather than running out of memory.

A ``BasisGraph`` holds the tree as columns: packed markings, integer
costs, parents and transitions, plus an occupancy index over the packed
markings that builds each place's bitset on its first read. Queries
combine the bitsets and unpack only the markings they read, so a query
pays for the places it names, not for every place of the net. The search
keeps its keys, costs and pending edges in typed arrays of 8-byte ints, and
the keys become packed markings a bounded chunk at a time, from the bytes
of their placements and of their latch masks, so a build or a load peaks
near the size of the columns it returns rather than at a multiple of it.

A tree's cache section (``tree_bytes``) is its parent and transition
columns in the types ``_column_code`` picks, each as its byte planes.
Reading it back (``read_tree``) replays the tree in the build's key space
and checks it as it goes; build and load end in the same ``_packed_graph``.
"""

from __future__ import annotations

import heapq
import struct
import sys
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from typing import Dict, List, NamedTuple, Tuple, Union

from .errors import StateBudgetError
from .petri import Marking, PetriNet

DEFAULT_STATE_CAP = 5_000_000
# slots the search table of ``build_graph`` may hold per unit of state cap
TABLE_FACTOR = 16
# array type code of a 4-byte unsigned int, the widest parent/transition
# column (see ``_column_code``)
_U32 = next(code for code in "IL" if array(code).itemsize == 4)
# struct codes of unsigned fields 1, 2, 4 and 8 bytes wide
_FIELD_CODE = {1: "B", 2: "H", 4: "I", 8: "Q"}
# markings ``_packed_graph`` converts to bytes and joins at a time
_PACK_CHUNK = 1024


# translate table: byte 0 becomes the digit "0", any other byte "1"
_BIT_DIGIT = b"0" + b"1" * 255


class _Occupancy(dict):
    """The occupancy index of a graph's packed markings, built per place on
    first read: ``index[p]`` is an int whose bit ``i`` is set iff marking
    ``i`` has a token on place ``p``.

    A place's bitset is read off ``flat``, consecutive markings of
    ``places`` little-endian fields ``width`` bytes wide, one byte column
    at a time: the column's strided slice, taken backwards from the last
    marking so that marking 0 is the lowest bit, is mapped to binary digits
    with ``translate`` and read by ``int``. A graph has at least its root,
    so no slice is empty. A place outside the graph raises KeyError."""

    __slots__ = ("flat", "places", "width")

    def __init__(self, flat: bytes, places: int, width: int):
        super().__init__()
        self.flat, self.places, self.width = flat, places, width

    def __missing__(self, p: int) -> int:
        if not 0 <= p < self.places:
            raise KeyError(p)
        flat, width = self.flat, self.width
        stride = self.places * width
        last = len(flat) - stride + p * width
        bits = int(flat[last::-stride].translate(_BIT_DIGIT), 2)
        for k in range(1, width):
            bits |= int(flat[last + k::-stride].translate(_BIT_DIGIT), 2)
        self[p] = bits
        return bits


@dataclass
class BasisGraph:
    """The tree's markings in finalization order (ascending q), as columns.

    ``packed`` holds marking i at bytes ``i * places * width`` onward:
    ``places`` little-endian unsigned fields of ``width`` bytes each.
    ``qs[i] / scale`` is the cost of marking i; ``qs`` is an ``array("Q")``,
    or a list of ints for a tree with a scaled cost of 2**64 or more, so
    its type follows from the tree's costs alone. ``parent[i - 1]`` and
    ``transition[i - 1]`` are the tree edge into marking i (the root,
    marking 0, has none), each an array of the narrowest unsigned type
    that ``_column_code`` picks, as in ``tree_bytes``. ``index[p]`` is
    the occupancy bitset of place ``p`` (see ``_Occupancy``), built from
    ``packed`` on its first read. The index is derived from ``packed``:
    each graph makes its own, no constructor argument sets it, and it
    takes no part in comparisons.
    """

    packed: bytearray
    width: int
    places: int
    qs: Union[array, List[int]]
    scale: int
    parent: array
    transition: array
    # no repr: a large graph's bitsets exceed the int-to-str digit limit
    index: _Occupancy = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.index = _Occupancy(self.packed, self.places, self.width)

    def marking(self, i: int) -> Marking:
        """Marking ``i`` as a tuple of token counts, one per place."""
        if not 0 <= i < len(self.qs):
            raise IndexError(f"no marking {i} in a graph of {len(self.qs)}")
        return struct.unpack_from(f"<{self.places}{_FIELD_CODE[self.width]}",
                                  self.packed, i * self.places * self.width)

    def q(self, i: int) -> Fraction:
        return Fraction(self.qs[i], self.scale)

    def __len__(self) -> int:
        return len(self.qs)


class _Layout(NamedTuple):
    """Packed-int layout of a net, and the split of its
    markings into a placement and a latch mask: each of its ``places`` is a
    little-endian field of ``width`` bytes (1, 2, 4 or 8, wide enough for
    the initial token total); ``root`` is the packed initial marking.
    ``classes`` groups the latch places that can change into classes that
    always hold the same value, in ascending order of their first place.
    ``moves[t]`` is (mask of the source field, amount added to plain
    fields, bit c for each class c it sets, integer weight), and
    ``sources`` groups the moves by source field, in ascending transition
    id, as (field mask, [(plain, class bits, weight, transition)]). Costs
    are ``weight / scale``, the net's."""

    width: int
    places: int
    root: int
    classes: List[Tuple[int, ...]]
    moves: Tuple[Tuple[int, int, int, int], ...]
    sources: List[Tuple[int, List[Tuple[int, int, int, int]]]]
    scale: int


def _layout(net: PetriNet) -> _Layout:
    n = net.num_places
    tokens = max(1, sum(net.initial_marking))
    width = next(w for w in (1, 2, 4, 8) if tokens < 1 << 8 * w)
    shift = 8 * width
    # A latch changes iff it starts at 0 and some move sets it. Two such
    # latches are equal in every reachable marking if the same moves set
    # them, so a move sets all of a class or none of it. A latch that
    # cannot change keeps its initial value. One scan over the latch
    # column lists each latch's setters in ascending transition id.
    setters: Dict[int, List[int]] = {p: [] for p in net.latches}
    for t, latches in enumerate(net.sets):
        for p in latches:
            setters[p].append(t)
    by_setters: Dict[Tuple[int, ...], List[int]] = {}
    for p in sorted(net.latches):
        if setters[p] and not net.initial_marking[p]:
            by_setters.setdefault(tuple(setters[p]), []).append(p)
    classes = [tuple(places) for places in by_setters.values()]
    # class_bits[t] has bit c set iff move t sets class c
    class_bits = [0] * net.num_transitions
    for c, ts in enumerate(by_setters):
        for t in ts:
            class_bits[t] |= 1 << c
    full = (1 << shift) - 1
    # No plain field can carry, since counts stay below 2**shift.
    moves, sources = [], []
    for t, (src, dst, weight, bits) in enumerate(zip(net.sources, net.targets, net.weights,
                                                     class_bits)):
        field_mask = full << (shift * src)
        plain = (1 << (shift * dst)) - (1 << (shift * src))
        moves.append((field_mask, plain, bits, weight))
        if not sources or sources[-1][0] != field_mask:
            sources.append((field_mask, []))
        sources[-1][1].append((plain, bits, weight, t))
    root = sum(c << (shift * p) for p, c in enumerate(net.initial_marking))
    return _Layout(width, n, root, classes, tuple(moves), sources, net.scale)


class _Ids(dict):
    """The numbering of placements in the search's key space over the
    markings of a net (see ``build_graph``), shared by the
    build and the load.

    Placements get dense ids in order of first lookup: ``ids.order[i]`` is
    the i-th new placement, and ``ids[placement]`` is its i shifted left by
    ``bits``, the count of ``_layout``'s latch classes. The root's
    placement is looked up first and takes id 0. Each caller grows its own
    table, ``1 << bits`` slots per placement, and bounds it."""

    # a new id costs half as much with slots as with an instance dict
    __slots__ = ("bits", "order")

    def __init__(self, layout: _Layout):
        super().__init__()
        self.bits = len(layout.classes)
        self.order: List[int] = []
        self[layout.root]

    def __missing__(self, placement: int) -> int:
        order = self.order
        i = self[placement] = len(order) << self.bits
        order.append(placement)
        return i


def _column_code(bound: int) -> str:
    """The array type code of the narrowest unsigned ints, of 1, 2 or 4
    bytes, that hold ``bound``. The parent column's bound is N - 1,
    the highest marking index of a tree of N markings; the transition
    column's is the net's transition count, one past the last id, so that
    an id out of range can still be written and refused."""
    return "B" if bound < 1 << 8 else "H" if bound < 1 << 16 else _U32


def _planes(column: array) -> bytes:
    """The entries of ``column`` as little-endian byte planes: byte 0 of
    every entry, then byte 1 of every entry, and so on. A column of 1-byte
    entries is its own bytes."""
    if sys.byteorder == "big":
        column = array(column.typecode, column)
        column.byteswap()
    raw, width = column.tobytes(), column.itemsize
    return b"".join([raw[k::width] for k in range(width)])


def _from_planes(planes, code: str) -> array:
    """The column of type ``code`` whose ``_planes`` are ``planes``, a
    bytes-like object whose length is a multiple of the type's size: one
    strided slice assignment per plane."""
    column = array(code)
    width = column.itemsize
    size = len(planes) // width
    raw = bytearray(len(planes))
    for k in range(width):
        raw[k::width] = planes[k * size:(k + 1) * size]
    column.frombytes(raw)
    if sys.byteorder == "big":
        column.byteswap()
    return column


# _BIT_BYTE[k] maps a byte to 1 where its bit k is set, else to 0
_BIT_BYTE = [bytes(b >> k & 1 for b in range(256)) for k in range(8)]


def _packed_graph(keys: array, ids: _Ids, qs: Union[array, List[int]], parent: array,
                  transition: array, layout: _Layout) -> BasisGraph:
    """The ``BasisGraph`` of the markings with search keys ``keys`` and the
    other columns.

    A key's marking is its placement with the latch fields of its mask's
    classes (``layout.classes``) set to 1. The placements become ``bytes``
    in place, and ``packed`` is allocated once and written ``_PACK_CHUNK``
    markings at a time: the chunk's placement bytes joined, then, per latch place, one
    strided slice of bit c of the chunk's key bytes, c its class. No wide
    int is made per marking. Empties ``ids`` and ``keys``."""
    width, n = layout.width, layout.places
    size = n * width
    bits, placements = ids.bits, ids.order
    # the dict holds the placement ints too: the bytes must not double them
    ids.clear()
    for start in range(0, len(placements), _PACK_CHUNK):
        placements[start:start + _PACK_CHUNK] = map(
            int.to_bytes, placements[start:start + _PACK_CHUNK], repeat(size), repeat("little"))
    packed = bytearray(len(keys) * size)
    for start in range(0, len(keys), _PACK_CHUNK):
        chunk = keys[start:start + _PACK_CHUNK]
        low, high = start * size, (start + len(chunk)) * size
        packed[low:high] = b"".join([placements[key >> bits] for key in chunk])
        if sys.byteorder == "big":
            chunk.byteswap()
        raw = chunk.tobytes()
        for c, places in enumerate(layout.classes):
            column = raw[c >> 3::8].translate(_BIT_BYTE[c & 7])
            for p in places:
                packed[low + p * width:high:size] = column
    del keys[:], placements[:]
    return BasisGraph(packed, width, n, qs, layout.scale, parent, transition)


def build_graph(net: PetriNet, state_cap: int = DEFAULT_STATE_CAP) -> BasisGraph:
    """Build the min-cost basis tree of ``net``, the monitored net
    (``MonitoredNet.net``), by lowest-q-first expansion.

    The tree is a function of the net alone: ``state_cap`` decides only
    whether the build finishes. Its markings are the reachable
    ones, each once, in strictly ascending ``(q, parent, transition)``:
    ``q`` is the marking's minimal accumulated cost, and its tree edge
    ``(parent, transition)`` is the smallest (parent index, transition id)
    among the edges into it from a marking of cost ``q`` minus the
    transition's cost. ``read_tree`` checks this order. Raises
    StateBudgetError when more than ``state_cap`` markings arise, or when
    the search table would pass ``TABLE_FACTOR * state_cap`` slots, which
    only a net whose placements meet few of their latch masks reaches.

    The expansion uses a bucket queue: one FIFO array per pending cost.
    Within a cost, markings are final in the order their edges were found,
    which is ascending (parent index, transition).

    A marking is searched as the small int key ``pid << bits | mask``.
    ``pid`` numbers its placement, the packed marking of ``_layout`` with
    the fields of the changing latches cleared, in order of discovery. The
    changing latches fall into the ``bits`` classes of ``_layout``, and bit
    c of ``mask`` is the token of class c's latches; a latch that cannot
    change keeps its initial value inside the placement. Latches are never
    consumed, so a move's effect on the placement does not depend on the
    mask, and on the mask it is an OR of its class bits. Each placement's
    successor row, the (child base, weight, transition) of each move
    enabled at it in ascending transition id, is therefore built once, on
    its first expansion, and reused for every mask it meets. A child base
    is the id of the child's placement ORed with the move's class bits, and
    a child's key is the base ORed with the mask. A net without latches
    meets each placement once and keeps no row. At the end
    ``_packed_graph`` writes the keys' packed markings from byte columns.

    The search state is one flat list indexed by key, ``1 << bits`` slots
    per placement, grown after each row miss for the placements the row
    numbered. An unseen slot holds one shared int dearer than any path of
    ``state_cap`` moves, so each relaxation is a single comparison. The
    slots cost 8 bytes each and the list may hold at most ``TABLE_FACTOR *
    state_cap`` of them: a row whose placements would pass that bound
    raises StateBudgetError before the table grows.

    Costs are the net's integer weights, summed at its scale. The keys,
    the costs and the pending edges are typed arrays, not lists of int
    objects: besides its table, the search holds 24 bytes per final
    marking (key, cost, parent and transition) and 24 per pending edge. The cost column becomes a list of ints at the first
    cost that does not fit 8 bytes, as in ``read_tree``.
    """
    layout = _layout(net)
    # best[key] is the cost of the cheapest edge into the marking so far,
    # ``unseen`` before any, or -1 once it is final. ``unseen`` is dearer
    # than any path of ``state_cap`` moves, so every edge found beats it.
    # buckets[q] holds the edges (child, parent index, transition) that
    # lowered a child's best to q, three values each, in the order they
    # were found. Scaled costs can lie far apart, so ``pending`` is a heap
    # of the bucket costs rather than a scan of q + 1, q + 2, ... An edge
    # whose child's best is no longer its bucket's q is stale. Until the
    # root's row is built, ``best`` holds the root's slot alone.
    unseen = max((move[3] for move in layout.moves), default=0) * state_cap + 1
    best = [0]
    ids = _Ids(layout)
    bits, placements, sources = ids.bits, ids.order, layout.sources
    low = (1 << bits) - 1
    rows: Dict[int, List[Tuple[int, int, int]]] = {}
    buckets: Dict[int, array] = {0: array("Q", (0, 0, 0))}
    pending = [0]
    keys, qs = array("Q"), array("Q")
    # the transition column's type is known from the net; the parent
    # column's follows from the marking count, so it narrows at the end
    parent, transition = array(_U32), array(_column_code(net.num_transitions))

    while pending:
        q = heapq.heappop(pending)
        edges = iter(buckets.pop(q))
        for key, via_parent, via_t in zip(edges, edges, edges):
            if best[key] != q:
                continue
            if len(keys) >= state_cap:
                raise StateBudgetError(state_cap, what="basis graph construction")
            best[key] = -1
            idx = len(keys)
            keys.append(key)
            try:
                qs.append(q)
            except OverflowError:
                qs = [*qs, q]
            if idx:
                parent.append(via_parent)
                transition.append(via_t)
            pid = key >> bits
            row = rows.get(pid)
            if row is None:
                placement = placements[pid]
                # ORing in zero would make a new int per child; passing the
                # id's own object on keeps the row's ints shared with the dict
                row = [(ids[placement + plain] | cb if cb else ids[placement + plain], weight, t)
                       for field_mask, moves in sources if placement & field_mask
                       for plain, cb, weight, t in moves]
                if bits:
                    rows[pid] = row
                size = len(placements) << bits
                if size > len(best):
                    if size > TABLE_FACTOR * state_cap:
                        raise StateBudgetError(state_cap, what="basis graph search table")
                    best += [unseen] * (size - len(best))
            mask = key & low
            for base, weight, t in row:
                child = base | mask
                nq = q + weight
                if nq < best[child]:
                    best[child] = nq
                    bucket = buckets.get(nq)
                    if bucket is None:
                        bucket = buckets[nq] = array("Q")
                        heapq.heappush(pending, nq)
                    bucket.append(child)
                    bucket.append(idx)
                    bucket.append(t)

    del best, rows, row
    graph = _packed_graph(keys, ids, qs, parent, transition, layout)
    # after the keys are emptied, so the narrow copy adds nothing to the peak
    code = _column_code(len(graph) - 1)
    if code != _U32:
        graph.parent = array(code, parent)
    return graph


def tree_bytes(graph: BasisGraph, net: PetriNet) -> bytes:
    """The tree section of a cache of ``graph``, the tree that
    ``build_graph`` made of ``net``; the same bytes for equal inputs.

    It is ``parent[1..N-1]`` and then ``transition[1..N-1]``, each as
    little-endian unsigned ints of the width ``_column_code`` gives for
    N - 1 and for the net's transition count, whatever the types of the
    graph's own columns, written as their byte planes (``_planes``).
    Markings and costs are not stored; ``read_tree`` recomputes them.
    """
    columns = [array(_column_code(len(graph) - 1), graph.parent),
               array(_column_code(net.num_transitions), graph.transition)]
    return b"".join(map(_planes, columns))


def read_tree(data, count: int, net: PetriNet) -> BasisGraph:
    """Rebuild the tree of ``count`` markings whose ``tree_bytes`` for
    ``net`` are ``data``, a bytes-like object; raises ValueError at the
    first fault.

    Checks the length of ``data``: that of the columns ``tree_bytes``
    writes, whose widths follow from ``count`` and the net. Each column is
    rebuilt from its byte planes with one strided slice assignment per
    plane (``_from_planes``).
    Then one pass over the columns replays the tree in the key space that
    the build uses, with placements numbered by ``_Ids``. A marking's key
    is the child base of its transition at its parent's placement, ORed
    with the parent's latch mask. The base is worked out from the
    transition's entry in ``_layout``'s move table, as the build's rows
    are: the id of the parent's placement plus the move's plain fields, ORed
    with its class bits. Each base is worked out on the first tree edge
    that needs it and kept, so the load holds no more of them than the tree
    has edges; a net without latch classes, whose bases are each needed
    once, keeps none. A marking's ``q`` is ``q(parent)`` plus the
    transition's weight. The pass checks that every parent precedes its
    child, every transition id is in range and enabled at the parent, and
    the markings come in the strictly ascending ``(q, parent, transition)``
    order of ``build_graph``.

    After the pass, one count of the distinct keys checks that no marking
    is listed twice. With the placements all numbered, the key space is
    known: the count takes one byte per key slot while the slots stay
    within ``TABLE_FACTOR`` per marking, the table bound of a build capped
    at the marking count, and a dict of the keys past that, so every tree
    a build returns loads.
    """
    parent_code = _column_code(count - 1)
    transition_code = _column_code(net.num_transitions)
    split = array(parent_code).itemsize * (count - 1)
    size = split + array(transition_code).itemsize * (count - 1)
    if len(data) != size:
        raise ValueError(f"the tree's columns are {len(data)} bytes, expected {size}")
    data = memoryview(data)
    parents = _from_planes(data[:split], parent_code)
    transitions = _from_planes(data[split:], transition_code)
    del data

    layout = _layout(net)
    ids = _Ids(layout)
    bits, placements, moves = ids.bits, ids.order, layout.moves
    low = (1 << bits) - 1
    weights = [move[3] for move in moves]
    span = len(weights)
    # bases[pid * span + t] is the child base of transition t at placement
    # pid, as in the placement's row, once a tree edge has used it; a net
    # without latch classes meets each placement once and keeps none
    bases: Dict[int, int] = {}
    keys, qs = array("Q", (0,)), array("Q", (0,))
    # (q, parent, transition) of the previous marking, compared one scalar
    # at a time: no tuple is made per marking
    last_q, last_parent, last_t = 0, -1, -1
    for i, parent, t in zip(range(1, count), parents, transitions):
        if parent >= i:
            raise ValueError(f"marking {i} has parent {parent}")
        if t >= span:
            raise ValueError(f"marking {i} has transition {t}")
        key = keys[parent]
        slot = (key >> bits) * span + t
        base = bases.get(slot)
        if base is None:
            placement = placements[key >> bits]
            field_mask, plain, cb, _ = moves[t]
            if not placement & field_mask:
                raise ValueError(f"transition {t} is not enabled at marking {parent}")
            pid = ids[placement + plain]
            # as in the build's rows: no OR with zero, so the dict's int is shared
            base = pid | cb if cb else pid
            if bits:
                bases[slot] = base
        q = qs[parent] + weights[t]
        if q <= last_q and (q < last_q or parent < last_parent
                            or parent == last_parent and t <= last_t):
            raise ValueError(f"marking {i} breaks the (cost, parent, transition) order")
        last_q, last_parent, last_t = q, parent, t
        keys.append(base | key & low)
        try:
            qs.append(q)
        except OverflowError:
            qs = [*qs, q]
    del bases
    # a marking listed twice repeats its key: count the distinct keys in a
    # byte per slot, or in a dict past TABLE_FACTOR slots per marking
    slots = len(placements) << bits
    if slots <= TABLE_FACTOR * count:
        seen = bytearray(slots)
        for key in keys:
            seen[key] = 1
        distinct = seen.count(1)
        del seen
    else:
        distinct = len(dict.fromkeys(keys))
    if distinct != count:
        raise ValueError("the tree lists a marking twice")
    return _packed_graph(keys, ids, qs, parents, transitions, layout)
