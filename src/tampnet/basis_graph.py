"""Min-cost basis reachability tree over a monitored net.

Every transition of the monitored net moves one token out of one place, and
every firing is a graph edge: in the reduced net each abstract transition
moves into a labeled place, which carries a visit latch or an end label, so
no move can be folded away. The builder runs a lowest-cost-first expansion
over the reachable markings, so each marking is finalized with its minimal
accumulated cost q and exactly one parent edge; the result is a tree with
N markings and N - 1 edges. Markings are packed into one integer each;
nets that do not fit that layout are refused. While the tree grows, the
search splits each marking into a placement, its plain fields, numbered
densely, and a mask of its latch classes, and keys it by the small int
``placement id << class count | mask``. A latch class is a set of latch
places that always hold the same value, such as the latches of several
visit propositions on one region; a latch that never changes belongs to
none. Latches are only ever set, so the moves out of a placement, and the
placements they lead to, are worked out once and reused for every mask the
placement meets. The search state is a flat list indexed by that key, so
its size is placements times 2^classes; it is bounded by a fixed multiple
of the state cap, and a net whose placements meet few of their masks fails
with StateBudgetError rather than running out of memory.

A ``BasisGraph`` holds the tree as columns: packed markings, integer
costs, parents, transitions and per-place occupancy bitsets. Queries
combine the bitsets and unpack only the markings they read.

A cache file stores only the parent and transition columns. Loading it
replays the tree: each marking is its parent's fired by its transition and
each cost its parent's plus the transition's, with the same packed-int
layout and shared finishing helper as the build, and the replay checks the
file as it goes.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import struct
import sys
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Tuple

from .abstraction import MonitoredNet
from .errors import (CacheDigestError, CacheFormatError, CacheVersionError,
                     StateBudgetError)
from .petri import Marking, PetriNet

DEFAULT_STATE_CAP = 5_000_000
CACHE_FORMAT = "tampnet-basis-graph"
CACHE_VERSION = 2
# slots the search table of ``_build_packed`` may hold per unit of state cap
TABLE_FACTOR = 16
# array type code of a 4-byte unsigned int, for the parent/transition columns
_U32 = next(code for code in "IL" if array(code).itemsize == 4)
# struct codes of unsigned fields 1, 2, 4 and 8 bytes wide
_FIELD_CODE = {1: "B", 2: "H", 4: "I", 8: "Q"}


@dataclass
class BasisGraph:
    """The tree's markings in finalization order (ascending q), as columns.

    ``packed`` holds marking i at bytes ``i * places * width`` onward:
    ``places`` little-endian unsigned fields of ``width`` bytes each.
    ``qs[i] / scale`` is the cost of marking i. ``parent[i - 1]`` and
    ``transition[i - 1]`` are the tree edge into marking i (the root,
    marking 0, has none), laid out as in the cache body. ``occupied[p]`` is
    the occupancy index of place ``p``: an int whose bit ``i`` is set iff
    marking ``i`` has a token on ``p``.
    """

    packed: bytes
    width: int
    places: int
    qs: List[int]
    scale: int
    parent: array
    transition: array
    # no repr: a large graph's bitsets exceed the int-to-str digit limit
    occupied: Tuple[int, ...] = field(repr=False)

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


# translate table: byte 0 becomes the digit "0", any other byte "1"
_BIT_DIGIT = b"0" + b"1" * 255


def _occupancy(flat: bytes, places: int, width: int) -> Tuple[int, ...]:
    """Occupancy index of ``flat``, consecutive markings of ``places``
    little-endian fields ``width`` bytes wide: bit i of entry p is set iff
    field p of marking i is nonzero.

    Each byte column is one strided slice, mapped to binary digits with
    ``translate`` and read (reversed, so marking 0 is bit 0) by ``int``.
    """
    stride = places * width
    occupied = []
    for start in range(0, stride, width):
        bits = 0
        for k in range(start, start + width):
            bits |= int(b"0" + flat[k::stride].translate(_BIT_DIGIT)[::-1], 2)
        occupied.append(bits)
    return tuple(occupied)


def build_graph(qm: MonitoredNet,
                state_cap: int = DEFAULT_STATE_CAP) -> BasisGraph:
    """Build the min-cost basis tree by lowest-q-first expansion.

    The tree is a function of the net alone. Its markings are the reachable
    ones, each once, in strictly ascending ``(q, parent, transition)``:
    ``q`` is the marking's minimal accumulated cost, and its tree edge
    ``(parent, transition)`` is the smallest (parent index, transition id)
    among the edges into it from a marking of cost ``q`` minus the
    transition's cost. ``load_cache`` checks this order. Raises ValueError
    for a net that is not ``_packable``. Raises StateBudgetError when more
    than ``state_cap`` markings arise, or when the search table of
    ``_build_packed`` would pass ``TABLE_FACTOR * state_cap`` slots, which
    only a net whose placements meet few of their latch masks reaches.
    """
    if not _packable(qm.net):
        raise ValueError("the net does not fit packed markings: it needs "
                         "single-input transitions numbered by source place, "
                         "latches starting at 0 or 1 and no transition adding tokens")
    return _build_packed(qm, state_cap)


def _packable(net: PetriNet) -> bool:
    """Whether ``build_graph``, ``save_cache`` and ``load_cache`` accept
    ``net``: single-input transitions numbered by ascending source place,
    latches starting at 0 or 1, and no transition adding tokens to
    non-latch places, with the token total below 2**64 (so no count can
    outgrow a field sized for the initial total)."""
    if not all(len(pre) == 1 for pre in net.pre):
        return False
    by_source = all(a[0] <= b[0] for a, b in zip(net.pre, net.pre[1:]))
    binary_latches = all(net.initial_marking[p] <= 1 for p in net.clamp_at_one)
    bounded = sum(net.initial_marking) < 1 << 64 and all(
        sum(p not in net.clamp_at_one for p in post) <= 1 for post in net.post)
    return by_source and binary_latches and bounded


class _Layout(NamedTuple):
    """Packed-int layout of a ``_packable`` net: each of its ``places`` is a
    little-endian field of ``width`` bytes (1, 2, 4 or 8, wide enough for
    the initial token total); ``root`` is the packed initial marking;
    ``moves[t]`` is (mask of the source field, amount added to plain fields,
    latch bits ORed in, integer weight). Costs are ``weight / scale``.
    ``latches`` lists the latch places in ascending order."""

    width: int
    places: int
    root: int
    moves: Tuple[Tuple[int, int, int, int], ...]
    scale: int
    latches: Tuple[int, ...]


def _layout(net: PetriNet) -> _Layout:
    n = net.num_places
    tokens = max(1, sum(net.initial_marking))
    width = next(w for w in (1, 2, 4, 8) if tokens < 1 << 8 * w)
    shift = 8 * width
    clamped = net.clamp_at_one
    weights, scale = net.integer_costs
    place_bit = [1 << (shift * p) for p in range(n)]
    full = (1 << shift) - 1
    # Latch fields hold 0 or 1, so producing into one is an OR of its low
    # bit; no other field can carry, since counts stay below 2**shift.
    moves = []
    for t in range(net.num_transitions):
        src = net.pre[t][0]
        plain = sum(place_bit[p] for p in net.post[t] if p not in clamped) - place_bit[src]
        latch = sum(place_bit[p] for p in net.post[t] if p in clamped)
        moves.append((full << (shift * src), plain, latch, weights[t]))
    root = sum(c << (shift * p) for p, c in enumerate(net.initial_marking))
    return _Layout(width, n, root, tuple(moves), scale, tuple(sorted(clamped)))


def _packed_graph(order: List[int], qs: List[int], parent: array,
                  transition: array, layout: _Layout) -> BasisGraph:
    """The ``BasisGraph`` of the packed markings ``order`` and the other
    columns. Empties ``order`` once its bytes are taken, so it is not held
    alongside them."""
    width, n = layout.width, layout.places
    packed = b"".join([m.to_bytes(n * width, "little") for m in order])
    order.clear()
    return BasisGraph(packed, width, n, qs, layout.scale, parent, transition,
                      _occupancy(packed, n, width))


class _Ids(dict):
    """Dense ids for placements, in order of first lookup: ``ids.order[i]``
    is the i-th new placement, and ``ids[placement]`` is its i shifted left
    by ``bits``. Each new id grows ``table`` by ``1 << bits`` unseen
    (``None``) slots, one per latch mask; an id that would take ``table``
    past ``TABLE_FACTOR * state_cap`` slots raises StateBudgetError."""

    def __init__(self, bits: int, table: list, state_cap: int):
        super().__init__()
        self.bits = bits
        self.table = table
        self.limit = TABLE_FACTOR * state_cap
        self.state_cap = state_cap
        # a new id's slots, not made when they alone would pass the bound
        self.blank = [None] * (1 << bits) if 1 << bits <= self.limit else None
        self.order: List[int] = []

    def __missing__(self, key: int) -> int:
        if self.blank is None or len(self.table) + len(self.blank) > self.limit:
            raise StateBudgetError(self.state_cap, what="basis graph search table")
        self.table += self.blank
        i = self[key] = len(self.order) << self.bits
        self.order.append(key)
        return i


def _latch_classes(layout: _Layout) -> List[Tuple[int, ...]]:
    """The latch places that can change, grouped into classes that always
    hold the same value, in ascending order of their first place.

    A latch changes iff it starts at 0 and some move sets it. Two such
    latches are equal in every reachable marking if the same moves set
    them. A latch that cannot change keeps its initial value."""
    shift = 8 * layout.width
    classes: Dict[Tuple[int, ...], List[int]] = {}
    for p in layout.latches:
        setters = tuple(t for t, move in enumerate(layout.moves) if move[2] >> shift * p & 1)
        if setters and not layout.root >> shift * p & 1:
            classes.setdefault(setters, []).append(p)
    return [tuple(places) for places in classes.values()]


def _build_packed(qm: MonitoredNet, state_cap: int) -> BasisGraph:
    """Lowest-q-first expansion with a bucket queue: one FIFO list per
    pending cost. Within a cost, markings are final in the order their edges
    were found, which is ascending (parent index, transition).

    A marking is searched as the small int key ``pid << bits | mask``.
    ``pid`` numbers its placement, the packed marking of ``_layout`` with
    the fields of the changing latches cleared, in order of discovery. The
    changing latches fall into the ``bits`` classes of ``_latch_classes``,
    and bit c of ``mask`` is the token of class c's latches; a latch that
    cannot change keeps its initial value inside the placement. Latches are
    never consumed, so a move's effect on the placement does not depend on
    the mask, and on the mask it is an OR of fixed bits. Each placement's
    successor row is therefore built once, on its first expansion, and
    reused for every mask it meets: for its enabled transitions in ascending
    id (``_packable`` nets number them by source place), the triple (the
    child's ``pid << bits`` ORed with the move's class bits, integer weight,
    transition id). A child's key is that base ORed with the mask. A net
    without latches meets each placement once and keeps no row. At the end
    the keys become packed markings again, each class bit setting all of its
    latch fields.

    The search state is one flat list indexed by key, ``1 << bits`` slots
    per placement, grown as placements are numbered. Its slots cost 8 bytes
    each and it may hold at most ``TABLE_FACTOR * state_cap`` of them: a net
    whose placements meet few of their masks raises StateBudgetError before
    the table grows past that bound.

    Costs are exact integers, scaled by the LCM of the transition cost
    denominators.
    """
    layout = _layout(qm.net)
    shift = 8 * layout.width
    classes = _latch_classes(layout)
    bits = len(classes)
    low = (1 << bits) - 1
    class_fields = [sum(1 << shift * p for p in places) for places in classes]

    def class_mask(latch: int) -> int:
        return sum(1 << c for c, fields in enumerate(class_fields) if latch & fields)

    def latch_fields(mask: int) -> int:
        return sum(fields for c, fields in enumerate(class_fields) if mask >> c & 1)

    # transitions grouped by source field, in ascending transition id, as
    # (field mask, [(plain, class bits, weight, transition)])
    sources: List[Tuple[int, List[Tuple[int, int, int, int]]]] = []
    for t, (field_mask, plain, latch, weight) in enumerate(layout.moves):
        if not sources or sources[-1][0] != field_mask:
            sources.append((field_mask, []))
        sources[-1][1].append((plain, class_mask(latch), weight, t))

    # best[key] is the cost of the cheapest edge into the marking so far,
    # None before any, or -1 once it is final. buckets[q] lists the edges
    # (child, parent index, transition) that lowered a child's best to q, in
    # the order they were found. Scaled costs can lie far apart, so
    # ``pending`` is a heap of the bucket costs rather than a scan of q + 1,
    # q + 2, ... An entry whose child's best is no longer its bucket's q is
    # stale.
    best: List[Optional[int]] = []
    pids = _Ids(bits, best, state_cap)
    # the initial marking: placement 0, its changing latches all at 0
    pids[layout.root]
    placements = pids.order
    rows: Dict[int, List[Tuple[int, int, int]]] = {}
    best[0] = 0
    buckets: Dict[int, List[Tuple[int, int, int]]] = {0: [(0, 0, 0)]}
    pending = [0]
    order: List[int] = []
    qs: List[int] = []
    parent, transition = array(_U32), array(_U32)

    while pending:
        q = heapq.heappop(pending)
        for key, via_parent, via_t in buckets.pop(q):
            if best[key] != q:
                continue
            if len(order) >= state_cap:
                raise StateBudgetError(state_cap, what="basis graph construction")
            best[key] = -1
            idx = len(order)
            order.append(key)
            qs.append(q)
            if idx:
                parent.append(via_parent)
                transition.append(via_t)
            pid = key >> bits
            row = rows.get(pid)
            if row is None:
                placement = placements[pid]
                # ORing in zero would make a new int per child; passing the
                # id's own object on keeps the row's ints shared with ``pids``
                row = [(pids[placement + plain] | cb if cb else pids[placement + plain], weight, t)
                       for field_mask, moves in sources if placement & field_mask
                       for plain, cb, weight, t in moves]
                if bits:
                    rows[pid] = row
            mask = key & low
            for base, weight, t in row:
                child = base | mask if mask else base
                nq = q + weight
                old = best[child]
                if old is None or nq < old:
                    best[child] = nq
                    bucket = buckets.get(nq)
                    if bucket is None:
                        buckets[nq] = [(child, idx, t)]
                        heapq.heappush(pending, nq)
                    else:
                        bucket.append((child, idx, t))

    del best, rows, pids, row
    fields = {mask: latch_fields(mask) for mask in {key & low for key in order}}
    order[:] = [placements[key >> bits] | fields[key & low] for key in order]
    del placements
    return _packed_graph(order, qs, parent, transition, layout)


def net_digest(net: PetriNet) -> str:
    """Stable fingerprint of a net, used to pair caches with their model."""
    payload = {
        "places": net.num_places,
        "pre": [list(ps) for ps in net.pre],
        "post": [list(ps) for ps in net.post],
        "cost": [[c.numerator, c.denominator] for c in net.cost],
        "labels": [sorted([a.kind, a.name] for a in atoms) for atoms in net.labels],
        "m0": list(net.initial_marking),
        "clamp": sorted(net.clamp_at_one),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def save_cache(graph: BasisGraph, qm: MonitoredNet, path) -> None:
    """Persist the tree as its parent and transition columns; byte-identical
    for equal inputs.

    The file is one line of canonical JSON (``format``, ``version``, the
    net ``digest``, the marking count ``markings`` and the ``sha256`` of the
    body), then the body: ``parent[1..N-1]`` and ``transition[1..N-1]`` as
    little-endian uint32. Markings and costs are not stored; ``load_cache``
    recomputes them, so only graphs of ``_packable`` nets can be saved.
    Raises ValueError for any other graph.
    """
    if not _packable(qm.net):
        raise ValueError("only graphs of nets that fit packed markings can be cached")
    columns = [graph.parent, graph.transition]
    if sys.byteorder == "big":
        columns = [array(_U32, column) for column in columns]
        for column in columns:
            column.byteswap()
    body = b"".join(column.tobytes() for column in columns)
    header = {
        "format": CACHE_FORMAT,
        "version": CACHE_VERSION,
        "digest": net_digest(qm.net),
        "markings": len(graph),
        "sha256": hashlib.sha256(body).hexdigest(),
    }
    line = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("ascii")
    with open(path, "wb") as fh:
        fh.write(line + b"\n" + body)


def load_cache(path, qm: MonitoredNet) -> BasisGraph:
    """Load a cache written by ``save_cache`` and rebuild the tree from it.

    Checks the format tag, the version (CacheVersionError), the net digest
    (CacheDigestError), and the body length and SHA-256 against the header.
    Then, in one pass over the columns, each marking is its parent's
    marking fired by its transition and each ``q`` is ``q(parent)`` plus the
    transition's weight, in the packed-int integers of ``_layout``;
    the pass checks that every parent precedes its child, every transition
    id is in range and enabled at the parent, the markings come in the
    strictly ascending ``(q, parent, transition)`` order of ``build_graph``,
    and no marking repeats. Any failure raises CacheFormatError, as does a
    net that is not ``_packable``.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise CacheFormatError(f"cannot read cache {path}: {exc}") from exc
    line, newline, body = data.partition(b"\n")
    del data
    try:
        header = json.loads(line)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CacheFormatError(f"cache {path} has no readable header: {exc}") from exc
    if not newline or not isinstance(header, dict) or header.get("format") != CACHE_FORMAT:
        raise CacheFormatError(f"{path} is not a basis graph cache")
    if header.get("version") != CACHE_VERSION:
        raise CacheVersionError(header.get("version"), CACHE_VERSION)
    expected = net_digest(qm.net)
    if header.get("digest") != expected:
        raise CacheDigestError(str(header.get("digest")), expected)
    count = header.get("markings")
    if type(count) is not int or count < 1:
        raise CacheFormatError(f"cache {path} has a bad marking count {count!r}")
    if len(body) != 8 * (count - 1):
        raise CacheFormatError(
            f"cache {path} body is {len(body)} bytes, expected {8 * (count - 1)}")
    if hashlib.sha256(body).hexdigest() != header.get("sha256"):
        raise CacheFormatError(f"cache {path} body does not match its checksum")

    net = qm.net
    if not _packable(net):
        raise CacheFormatError(f"cache {path} is for a net that cannot be rebuilt")
    parents = array(_U32, body[:4 * (count - 1)])
    transitions = array(_U32, body[4 * (count - 1):])
    del body
    if sys.byteorder == "big":
        parents.byteswap()
        transitions.byteswap()

    layout = _layout(net)
    moves = layout.moves
    order = [layout.root]
    qs = [0]
    last = (0, -1, -1)  # (q, parent, transition) of the previous marking
    for i, (parent, t) in enumerate(zip(parents, transitions), 1):
        if parent >= i:
            raise CacheFormatError(f"cache {path}: marking {i} has parent {parent}")
        if t >= len(moves):
            raise CacheFormatError(f"cache {path}: marking {i} has transition {t}")
        mask, plain, latch, weight = moves[t]
        m = order[parent]
        if not m & mask:
            raise CacheFormatError(
                f"cache {path}: transition {t} is not enabled at marking {parent}")
        q = qs[parent] + weight
        key = (q, parent, t)
        if key <= last:
            raise CacheFormatError(
                f"cache {path}: marking {i} breaks the (cost, parent, transition) order")
        last = key
        order.append((m + plain) | latch)
        qs.append(q)
    if len(set(order)) != count:
        raise CacheFormatError(f"cache {path} lists a marking twice")
    return _packed_graph(order, qs, parents, transitions, layout)
