"""Payload codec for stored closure entries.

A store payload is a flat, self-contained byte string — no pickle, no
object graph — so a worker can decode it without trusting anything but
the frozen view it already attached. A closure entry is the id-keyed
``(dist, prev)`` of a terminal Dijkstra: node ids are mapped through the
frozen view's dense index (8 bytes instead of a variable-length string),
distances are raw float64, predecessor links are index pairs.

The codec preserves **dict iteration order** — entries are written in
the source dict's order (the Dijkstra settle order) and decoded by
inserting in that same order, so a decoded dict iterates exactly like
the original. Order-preserving payloads are what keep store-on runs
bit-identical to store-off runs.
"""

from __future__ import annotations

import struct
from array import array

#: Closure header: (n_dist: int64, n_prev: int64).
_CLOSURE_HEADER = struct.Struct("<qq")


def encode_closure(frozen, dist, prev) -> bytes | None:
    """Pack an id-keyed closure entry; None when it is not packable.

    Ids outside the frozen view (impossible for a settle set, but
    checked) would not round-trip.
    """
    index_of = frozen.index_of
    try:
        dist_idx = array("q", (index_of(node) for node in dist))
        prev_idx = array("q")
        for node, parent in prev.items():
            prev_idx.append(index_of(node))
            prev_idx.append(index_of(parent))
    except KeyError:  # pragma: no cover - settled set is always known
        return None
    values = array("d", dist.values())
    return b"".join(
        (
            _CLOSURE_HEADER.pack(len(dist), len(prev)),
            dist_idx.tobytes(),
            values.tobytes(),
            prev_idx.tobytes(),
        )
    )


def decode_closure(frozen, payload: bytes):
    """Unpack :func:`encode_closure` against the same frozen view."""
    n_dist, n_prev = _CLOSURE_HEADER.unpack_from(payload, 0)
    offset = _CLOSURE_HEADER.size
    dist_idx = array("q")
    dist_idx.frombytes(payload[offset : offset + n_dist * 8])
    offset += n_dist * 8
    values = array("d")
    values.frombytes(payload[offset : offset + n_dist * 8])
    offset += n_dist * 8
    prev_idx = array("q")
    prev_idx.frombytes(payload[offset : offset + n_prev * 16])
    ids = frozen.ids
    dist = {
        ids[dist_idx[i]]: values[i] for i in range(n_dist)
    }
    prev = {
        ids[prev_idx[2 * i]]: ids[prev_idx[2 * i + 1]]
        for i in range(n_prev)
    }
    return dist, prev
