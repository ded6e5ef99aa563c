"""The cache file of an offline model: one header line, then one zlib stream.

The header is canonical JSON: the map's key, the monitored net's digest,
the marking count, the sizes of the reduction section and of the payload,
and the payload's SHA-256, so it does not depend on the zlib build. The
payload is two sections, each written and read by its own layer as plain
bytes, whose reader raises ValueError at the first fault:

- the reduction (``abstraction.reduction_bytes``): each move as its rank
  among the moves out of its place, and no cost. ``read_reduction`` checks
  every route against the movement net and sums its cost, but runs no
  search;
- the tree (``basis_graph.tree_bytes``): its parent and transition columns,
  each as its byte planes, since the high bytes of a parent column are
  mostly 0 and as planes zlib sees them as runs. ``read_tree`` replays the
  tree; markings and costs are not stored.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import zlib
from fractions import Fraction
from typing import Tuple

from .abstraction import read_reduction, reduction_bytes
from .basis_graph import BasisGraph, read_tree, tree_bytes
from .errors import CacheDigestError, CacheFormatError, CacheVersionError
from .grid import Environment, env_digest
from .petri import PetriNet
from .planner import OfflineModel, offline_model

CACHE_FORMAT = "tampnet-basis-graph"
CACHE_VERSION = 5
# the zlib level of a cache's payload: the fastest, which takes plant's
# tree columns, as byte planes, to under a quarter of their size
_ZLIB_LEVEL = 1


def net_digest(net: PetriNet) -> str:
    """Stable fingerprint of a net, used to pair caches with their model.

    The JSON names each move's input places (``pre``: its source), its
    output places (``post``: its target, then the latches it sets) and its
    cost as ``[numerator, denominator]`` in lowest terms, as in the arc
    lists of a general Petri net, so the fingerprint does not depend on
    the scale a net's weights are counted at."""
    cost = {w: Fraction(w, net.scale) for w in set(net.weights)}
    payload = {
        "places": net.num_places,
        "pre": [[p] for p in net.sources],
        "post": [[x, *latches] for x, latches in zip(net.targets, net.sets)],
        "cost": [[c.numerator, c.denominator] for c in map(cost.__getitem__, net.weights)],
        "labels": [sorted([a.kind, a.name] for a in atoms) for atoms in net.labels],
        "m0": list(net.initial_marking),
        "clamp": sorted(net.latches),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def save_offline(env: Environment, offline: OfflineModel, path) -> None:
    """Write ``offline``, the model of ``env``, to a cache file that
    ``load_offline`` reads back; byte-identical for equal inputs and one
    zlib build. The header's ``key`` is ``env``'s digest. A new file beside
    ``path`` is renamed onto it: a failed save leaves an old cache whole,
    and no reader sees half a file. An error creating that file names
    ``path``."""
    net = offline.monitored.net
    reduction = reduction_bytes(offline.simplified, offline.net)
    payload = reduction + tree_bytes(offline.graph, net)
    header = {
        "format": CACHE_FORMAT,
        "version": CACHE_VERSION,
        "key": env_digest(env),
        "digest": net_digest(net),
        "markings": len(offline.graph),
        "reduction": len(reduction),
        "payload": len(payload),
        "sha256": hashlib.sha256(payload).hexdigest(),
    }
    line = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("ascii")
    body = zlib.compress(payload, _ZLIB_LEVEL)
    del payload
    temp = f"{path}.{os.urandom(8).hex()}.tmp"
    try:
        fh = open(temp, "xb")
    except OSError as error:
        raise OSError(error.errno, error.strerror, path) from None
    try:
        with fh:
            fh.write(line + b"\n" + body)
        os.replace(temp, path)
    except BaseException:
        os.remove(temp)
        raise


def _count(header: dict, name: str, low: int, high: int, path) -> int:
    """The header's int ``name``, refused unless ``low <= value <= high``."""
    value = header.get(name)
    if type(value) is not int or not low <= value <= high:
        raise CacheFormatError(f"cache {path} has a bad {name} count {value!r}")
    return value


def _opened(path, key: str) -> Tuple[dict, bytes]:
    """The header and the inflated payload of the cache at ``path``.

    Checks the format tag, the version (CacheVersionError), the key
    (CacheDigestError) and the marking, payload and reduction counts,
    before the body is touched. The body is then inflated to at most the
    header's ``payload`` byte count, so a stream that would inflate past it
    stops there; it must end exactly there, with no bytes after the
    stream, and the payload must match the header's SHA-256. Any other
    failure raises CacheFormatError.
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
    if header.get("key") != key:
        raise CacheDigestError(str(header.get("key")), key)
    _count(header, "markings", 1, sys.maxsize, path)
    size = _count(header, "payload", 0, sys.maxsize - 1, path)
    _count(header, "reduction", 0, size, path)
    inflater = zlib.decompressobj()
    try:
        payload = inflater.decompress(body, size + 1)
    except zlib.error as exc:
        raise CacheFormatError(f"cache {path} body does not inflate: {exc}") from exc
    del body
    if len(payload) > size:
        raise CacheFormatError(f"cache {path} payload inflates past its {size} bytes")
    if len(payload) < size or not inflater.eof or inflater.unused_data:
        raise CacheFormatError(f"cache {path} payload is {len(payload)} bytes, expected "
                               f"{size} in one whole zlib stream")
    if hashlib.sha256(payload).hexdigest() != header.get("sha256"):
        raise CacheFormatError(f"cache {path} payload does not match its checksum")
    return header, payload


def _section(path, read, *args):
    """``read(*args)``, a section reader, with its ValueError raised as the
    CacheFormatError of the cache at ``path``."""
    try:
        return read(*args)
    except ValueError as error:
        raise CacheFormatError(f"cache {path}: {error}") from error


def load_offline(env: Environment, path) -> OfflineModel:
    """Offline model read from a ``save_offline`` file instead of being
    rebuilt; raises CacheError when it does not match.

    The header and the payload are checked before any per-cell work (see
    ``_opened``). Then the movement net is compiled, the stored reduction
    is read against it, the visit latches are added, the monitored net's
    digest is checked (CacheDigestError), and the tree is replayed."""
    header, payload = _opened(path, env_digest(env))
    start = header["reduction"]

    def graph_for(monitored: PetriNet) -> BasisGraph:
        expected = net_digest(monitored)
        if header.get("digest") != expected:
            raise CacheDigestError(str(header.get("digest")), expected)
        return _section(path, read_tree, memoryview(payload)[start:], header["markings"],
                        monitored)

    return offline_model(env, lambda net: _section(path, read_reduction, payload[:start], net),
                         graph_for)
