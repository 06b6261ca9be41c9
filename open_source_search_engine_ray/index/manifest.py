"""Per-partition segment manifests: lineage + metrics (north rule).

Each shuffle shard writes ``manifests/gen={g}/part-{shard:05d}.json`` next
to its segment file, recording the input fingerprint, row/term counts,
bytes and wall time.  A build invoked with the same fingerprint skips
shards whose manifest is complete — resume-mid-shuffle (the analogue of the
reference's numbered immutable Rdb files + maps surviving restart,
``Rdb::saveTree`` / ``RdbBase``).
"""

from __future__ import annotations

import json
import os
import time


def manifest_path(out_dir: str, shard: int, generation: int = 0) -> str:
    return os.path.join(out_dir, "manifests", f"gen={generation}",
                        f"part-{shard:05d}.json")


# a segment file's name is ``part-{shard:05d}`` + this
SEGMENT_SUFFIX = ".seg"


def segment_path(out_dir: str, shard: int, generation: int = 0) -> str:
    return os.path.join(out_dir, "segments", f"gen={generation}",
                        f"part-{shard:05d}{SEGMENT_SUFFIX}")


# a generation's doc table ``table``: ``table-{table:05d}`` + this, beside
# the segment files whose ordinals index it
DOC_TABLE_SUFFIX = ".docs"


def doc_table_name(table: int) -> str:
    return f"table-{table:05d}{DOC_TABLE_SUFFIX}"


def doc_table_path(out_dir: str, table: int, generation: int = 0) -> str:
    return os.path.join(out_dir, "segments", f"gen={generation}",
                        doc_table_name(table))


def write_manifest(out_dir: str, shard: int, *, fingerprint: str,
                   n_terms: int, n_postings: int, bytes_written: int,
                   wall_sec: float, salt: int | None = None,
                   hot_terms: list[int] | None = None,
                   generation: int = 0) -> None:
    """``hot_terms``: on a partition's own shard, the terms it salted
    into its hot shards (the build's record of its hot set)."""
    path = manifest_path(out_dir, shard, generation)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    doc = {
        "shard": shard,
        "generation": generation,
        "fingerprint": fingerprint,
        "complete": True,
        "n_terms": n_terms,
        "n_postings": n_postings,
        "bytes": bytes_written,
        "wall_sec": round(wall_sec, 4),
        "salt": salt,
        "hot_terms": hot_terms,
        "written_at": time.time(),
    }
    tmp = path + ".tmp.%d" % os.getpid()
    with open(tmp, "w") as f:
        json.dump(doc, f)
    os.replace(tmp, path)


def read_manifest(out_dir: str, shard: int, generation: int = 0) -> dict | None:
    path = manifest_path(out_dir, shard, generation)
    if not os.path.exists(path):
        return None
    try:
        with open(path) as f:
            return json.load(f)
    except (json.JSONDecodeError, OSError):
        return None


def completed_shards(out_dir: str, fingerprint: str,
                     generation: int = 0) -> set[int]:
    """Shards whose manifest is complete for this fingerprint AND whose
    segment file exists."""
    droot = os.path.join(out_dir, "manifests", f"gen={generation}")
    done: set[int] = set()
    if not os.path.isdir(droot):
        return done
    for name in os.listdir(droot):
        if not name.startswith("part-") or not name.endswith(".json"):
            continue
        shard = int(name[5:-5])
        m = read_manifest(out_dir, shard, generation)
        if (m and m.get("complete") and m.get("fingerprint") == fingerprint
                and (m.get("n_terms", 0) == 0 or
                     os.path.exists(segment_path(out_dir, shard, generation)))):
            done.add(shard)
    return done
