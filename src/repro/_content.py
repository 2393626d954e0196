"""Content addresses and the on-disk store keyed by them.

One canonical form behind every hash the repo hands out (spec, plan,
campaign, snapshot) and one layout behind every store keyed by such a
hash (the campaign cache).
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Optional


def content_hash(body: Any) -> str:
    """sha256 hex of ``body``'s canonical JSON."""
    canonical = json.dumps(
        body, sort_keys=True, separators=(",", ":"), default=str
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def entry_path(root: str, key: str) -> str:
    """``<root>/<key[:2]>/<key>.json``: the two-level fan-out keeps
    directories small on million-entry stores."""
    return os.path.join(root, key[:2], key + ".json")


def read_entry(path: str) -> Optional[Any]:
    """The parsed entry, or ``None``: corruption is a miss, never a crash."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def write_entry(path: str, body: Any) -> None:
    """Store ``body`` atomically: a reader sees the old entry or the new
    one, never a torn file."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        # ``dumps``, not ``dump``: same bytes, through the C encoder.
        fh.write(json.dumps(body, sort_keys=True, default=str) + "\n")
    os.replace(tmp, path)
