"""GraphIR serialization: the stable on-disk format for extracted graphs.

The format is zlib-compressed JSON of a flat dict — deterministic for a
given graph, safe to load from untrusted bytes (no pickling of arbitrary
objects), and versioned so stale cache entries from an incompatible format
are rejected instead of misread.  It is the codec the fingerprint index's
content-addressed graph cache uses for every level (RTL and netlist).
"""

import json
import zlib

from repro.errors import GraphIRError
from repro.ir.graphir import GraphIR

#: Bump when the payload layout changes; loaders reject other versions.
FORMAT_VERSION = 1


def to_dict(graph):
    """Flatten a :class:`~repro.ir.graphir.GraphIR` into plain JSON
    types."""
    return {
        "version": FORMAT_VERSION,
        "name": graph.name,
        "level": getattr(graph, "level", "rtl"),
        "kinds": [node.kind for node in graph.nodes],
        "labels": [node.label for node in graph.nodes],
        "names": [node.name for node in graph.nodes],
        "edges": [[src, dst]
                  for src in range(len(graph))
                  for dst in graph.successors(src)],
    }


def from_dict(payload):
    """Rebuild a :class:`GraphIR` from :func:`to_dict` output.

    Raises:
        GraphIRError: on a malformed or version-incompatible payload.
    """
    try:
        if payload["version"] != FORMAT_VERSION:
            raise GraphIRError(
                f"GraphIR payload version {payload['version']!r} "
                f"!= {FORMAT_VERSION}")
        graph = GraphIR(payload["name"], level=payload["level"])
        kinds, labels, names = (payload["kinds"], payload["labels"],
                                payload["names"])
        if not (len(kinds) == len(labels) == len(names)):
            raise GraphIRError("GraphIR payload arrays disagree in length")
        for kind, label, name in zip(kinds, labels, names):
            graph.add_node(kind, label, name)
        count = len(kinds)
        for src, dst in payload["edges"]:
            if not (0 <= src < count and 0 <= dst < count):
                raise GraphIRError(f"GraphIR payload edge {src}->{dst} "
                                   f"out of range")
            graph.add_edge(src, dst)
        return graph
    except (KeyError, TypeError, ValueError) as exc:
        raise GraphIRError(f"malformed GraphIR payload: {exc}") from exc


def dumps(graph):
    """Serialize a GraphIR to compressed bytes."""
    text = json.dumps(to_dict(graph), separators=(",", ":"),
                      sort_keys=True)
    return zlib.compress(text.encode("utf-8"), level=6)


def loads(blob):
    """Deserialize bytes from :func:`dumps`.

    Raises:
        GraphIRError: if the bytes are corrupt or not a GraphIR payload.
    """
    try:
        payload = json.loads(zlib.decompress(blob).decode("utf-8"))
    except (zlib.error, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise GraphIRError(f"corrupt GraphIR blob: {exc}") from exc
    return from_dict(payload)
