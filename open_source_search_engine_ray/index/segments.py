"""Posting-list segment files: encode (build side) and read (query side).

A segment file holds one shuffle shard's posting lists, sorted by term
id, as the reference's posdb files hold them: delta-compressed byte
ranges that a resident per-file map locates (``RdbMap.h:1-50``,
``Posdb.h:230-235``, ``RdbList.h:13-47``).  Format 7 has three parts:

- posting blocks: the scored columns of consecutive terms, cut into
  blocks of about ``BLOCK_BYTES`` raw (a term is never split, so a long
  list is a block of its own).  A block holds its terms' docId gaps
  (uint64, restarting at each term: a term's first gap is its first
  docId), then their per-field tfs (uint32, field-major per term: every
  posting's field-0 tf, then field 1, ...), then their doc lengths
  (float32), as one zstd frame;
- position blocks, cut the same way: per-doc position counts, then the
  position gaps that restart at each doc's first position (uint32);
- a footer with the sorted term ids (as gaps), each term's df and
  position count, and each block's first term and compressed size, as
  int64 byte planes under zstd, followed by a fixed trailer: the
  footer's sizes, the format version and a magic.

df is the list's length and cf its tf sum; block maxima for the pruned
plans are computed from the merged list when it is fetched.

A reader keeps the footer resident — the ``RdbMap`` role.  A term the
file lacks costs no I/O; a term it holds costs a binary search, one
``os.pread`` of its posting block (and one of its position block when
positions are wanted), one decompress each and numpy slices.
Compaction decodes whole files through the same reader.

Files are immutable once written, so readers are shared: every searcher
in a process that opens the same file (same path, inode, size and
mtime) gets the same reader (:func:`open_segment`).  The registry holds
readers weakly, so a reader — and its file descriptor — lives exactly
as long as some searcher holds it, and a reopen after an add keeps the
readers of the generations the add did not touch.  ``pread`` is
positional, so threads share a reader.
"""

from __future__ import annotations

import bisect
import os
import struct
import threading
import weakref
from dataclasses import dataclass

import numpy as np
import pyarrow as pa

from ..config import IndexConfig, NUM_FIELDS, TURN_STRIDE
from ..functions.ragged import ragged_arange

# a block's window of raw bytes: it takes the terms that start in it
BLOCK_BYTES = 4096
_CODEC = pa.Codec("zstd", compression_level=1)
MAGIC = b"OSEG"
# footer compressed size, footer raw size, format version, magic
_TRAILER = struct.Struct("<QQI4s")
# a block's columns in order: (dtype, unit, values per unit), the unit a
# posting (0) or a position (1)
_POSTING_BLOCK = ((np.dtype(np.uint64), 0, 1),
                  (np.dtype(np.uint32), 0, NUM_FIELDS),
                  (np.dtype(np.float32), 0, 1))
_POSITION_BLOCK = ((np.dtype(np.uint32), 0, 1), (np.dtype(np.uint32), 1, 1))


def encode_shard(postings: pa.Table, config: IndexConfig) -> bytes:
    """Encode one shard's posting partials into a segment file image."""
    g = merge_partials(postings, config)
    if g is None:
        z = np.zeros(0, dtype=np.int64)
        return encode_from_groups(z, z, z, np.zeros((0, NUM_FIELDS)), z, z)
    flat, offs = g["positions"]
    return encode_from_groups(g["term"], g["doc_ids"], g["dl"], g["tfs"],
                              flat, np.diff(offs))


def merge_partials(postings: pa.Table, config: IndexConfig) -> dict | None:
    """Merge posting partials into one group per (term, doc).

    ``postings`` columns: term_id, doc_id, field, tf, positions, dl.
    Partials with the same (term, doc) from different turns/batches are
    merged here (tf summed per field, positions concatenated sorted) — the
    posting-merge analogue of ``RdbList::posdbMerge_r``.

    → groups sorted by (term, doc): ``term``, ``doc_ids``, ``dl``, ``tfs``
    (n, NUM_FIELDS), ``positions`` = (flat, offsets) capped at
    ``max_positions_per_doc``, and ``turns``: the distinct turns the
    (term, doc) occurs in, counted before the cap (exact whatever the
    batch boundaries: positions are ``turn_idx × TURN_STRIDE + ordinal``).
    None when there are no postings.
    """
    if postings.num_rows == 0:
        return None
    postings = postings.combine_chunks()
    term = postings["term_id"].to_numpy()
    doc = postings["doc_id"].to_numpy()
    field = postings["field"].to_numpy()          # uint8
    tf = postings["tf"].to_numpy()                # int32
    dl = postings["dl"].to_numpy()                # float32
    pos_col = postings["positions"].combine_chunks()
    pos_offsets = pos_col.offsets.to_numpy().astype(np.int64)
    pos_values = pos_col.values.to_numpy()        # int32

    # sort by (term, doc) only — rows of the same (term, doc) merge via
    # commutative accumulation, so field order inside a group is free
    order = np.lexsort((doc, term))
    term, doc, field, tf, dl = (term[order], doc[order], field[order],
                                tf[order], dl[order])
    tf = tf.astype(np.int64)

    # (term, doc) group boundaries
    new_td = np.empty(len(term), dtype=bool)
    new_td[0] = True
    new_td[1:] = (term[1:] != term[:-1]) | (doc[1:] != doc[:-1])
    td_starts = np.flatnonzero(new_td)
    td_id = np.cumsum(new_td) - 1           # group index per row
    n_td = len(td_starts)

    # per-(term,doc) per-field tf matrix
    tfs = np.zeros((n_td, NUM_FIELDS), dtype=np.int64)
    np.add.at(tfs, (td_id, field), tf)

    # positions per (term,doc): concatenate source lists in row order
    # (sorted by (term,doc,field); within each original list positions are
    # ascending, and lists from different turns don't interleave-sort —
    # we re-sort the concatenation per group)
    row_pos_lens = pos_offsets[1:] - pos_offsets[:-1]
    row_pos_lens = row_pos_lens[order]
    src_starts = pos_offsets[:-1][order]
    flat_idx = np.repeat(src_starts, row_pos_lens) + ragged_arange(row_pos_lens)
    flat_pos = pos_values[flat_idx]
    grp_of_pos = np.repeat(td_id, row_pos_lens)
    pos_order = np.lexsort((flat_pos, grp_of_pos))
    flat_pos = flat_pos[pos_order]
    grp_of_pos = grp_of_pos[pos_order]
    grp_pos_counts = np.bincount(grp_of_pos, minlength=n_td)

    turn = flat_pos // TURN_STRIDE
    new_turn = np.ones(len(flat_pos), dtype=bool)
    new_turn[1:] = (grp_of_pos[1:] != grp_of_pos[:-1]) | (turn[1:] != turn[:-1])
    turns = np.bincount(grp_of_pos[new_turn], minlength=n_td)

    # deterministic positions cap: per (term, doc), after the merge of all
    # batch partials and the ascending sort, keep only the first
    # max_positions_per_doc positions.  tf is NOT capped (scoring exact);
    # only phrase matching sees the truncation — same rule in OracleIndex.
    cap = config.max_positions_per_doc
    if int(grp_pos_counts.max(initial=0)) > cap:
        keep = ragged_arange(grp_pos_counts) < cap
        flat_pos = flat_pos[keep]
        grp_pos_counts = np.minimum(grp_pos_counts, cap)

    return {"term": term[td_starts], "doc_ids": doc[td_starts],
            "dl": dl[td_starts], "tfs": tfs,
            "positions": (flat_pos, np.concatenate(
                [[0], np.cumsum(grp_pos_counts)]).astype(np.int64)),
            "turns": turns}


def encode_from_groups(g_term: np.ndarray, g_doc: np.ndarray,
                       g_dl: np.ndarray, tfs: np.ndarray,
                       flat_pos: np.ndarray,
                       grp_pos_counts: np.ndarray) -> bytes:
    """Encode already-merged (term, doc) groups (sorted by term then doc)
    into a segment file image.  Shared by the build path
    (``merge_partials``), ingest adds and segment-level compaction
    (index/merge.py) — the same bytes either way.  Vectorized over
    terms; the only loop is over blocks, one zstd frame each."""
    g_term = np.asarray(g_term, dtype=np.uint64)
    g_doc = np.asarray(g_doc, dtype=np.uint64)
    n_td = len(g_term)
    new_t = np.ones(n_td, dtype=bool)
    new_t[1:] = g_term[1:] != g_term[:-1]
    t_starts = np.flatnonzero(new_t)
    df = np.diff(np.append(t_starts, n_td))
    grp_pos_counts = np.asarray(grp_pos_counts, dtype=np.int64)
    npos = (np.add.reduceat(grp_pos_counts, t_starts) if n_td
            else np.zeros(0, dtype=np.int64))

    # docId gaps, restarting at each term's first (absolute) docId
    gaps = g_doc.copy()
    gaps[1:] -= g_doc[:-1]
    gaps[t_starts] = g_doc[t_starts]
    tf_vals = np.empty(NUM_FIELDS * n_td, dtype=np.uint32)
    tf_vals[_field_major_index(df)] = tfs
    # position gaps, restarting at each doc's first position
    grp_pos_offsets = np.concatenate([[0], np.cumsum(grp_pos_counts)])
    pos = flat_pos.astype(np.int64)
    pos_deltas = pos.copy()
    pos_deltas[1:] -= pos[:-1]
    firsts = grp_pos_offsets[:-1][grp_pos_counts > 0]
    pos_deltas[firsts] = pos[firsts]

    units = (df, npos)
    post_frames, post_first = _blocks(_POSTING_BLOCK, units, (
        gaps, tf_vals, g_dl.astype(np.float32)))
    pos_frames, pos_first = _blocks(_POSITION_BLOCK, units, (
        grp_pos_counts.astype(np.uint32), pos_deltas.astype(np.uint32)))
    footer = np.concatenate([
        [len(t_starts), len(post_first), len(pos_first)],
        np.diff(g_term[t_starts], prepend=np.uint64(0)).view(np.int64),
        df, npos, post_first, [f.size for f in post_frames],
        pos_first, [f.size for f in pos_frames]]).astype(np.int64)
    # byte planes (every value's low byte, then the next byte, ...): the
    # values are small or gaps, so the high planes compress away
    packed = _CODEC.compress(footer.view(np.uint8).reshape(-1, 8).T.copy())
    return b"".join(post_frames + pos_frames + [packed, _TRAILER.pack(
        packed.size, footer.nbytes, IndexConfig.format_version, MAGIC)])


def _blocks(layout: tuple, units: tuple, arrays: tuple) -> tuple:
    """Cut consecutive terms into blocks of ``layout`` columns → (one
    zstd frame per block, each block's first term).  A block takes the
    terms whose first raw byte falls in its ``BLOCK_BYTES`` window, so a
    term is never split.  ``units`` holds each term's postings and
    positions; ``arrays`` the columns' values, terms in order."""
    raw = sum(t.itemsize * k * units[u] for t, u, k in layout)
    window = (np.cumsum(raw) - raw) // BLOCK_BYTES
    first = np.flatnonzero(np.concatenate([[True], window[1:] != window[:-1]])
                           if len(raw) else np.zeros(0, dtype=bool))
    starts = [np.concatenate([[0], np.cumsum(u)]) for u in units]
    # each column's value bounds of every block
    cuts = [(k * starts[u][np.append(first, len(raw))]).tolist()
            for _, u, k in layout]
    frames = [_CODEC.compress(b"".join(a[c[b]:c[b + 1]]
                                       for a, c in zip(arrays, cuts)))
              for b in range(len(first))]
    return frames, first


def _field_major_index(df: np.ndarray) -> np.ndarray:
    """(sum(df), NUM_FIELDS) index of each posting's per-field tf in the
    flat ``tfs`` values of consecutive rows holding ``df`` postings each
    (row-local layout: field 0 of every posting, then field 1, ...)."""
    first = np.repeat(np.cumsum(df) - df, df)     # row start per posting
    per_row = np.repeat(df, df)
    base = np.arange(len(first), dtype=np.int64) + (NUM_FIELDS - 1) * first
    return base[:, None] + per_row[:, None] * np.arange(NUM_FIELDS)


def write_segment(data: bytes, path: str) -> None:
    """Idempotent write of a segment file image: tmp file + atomic rename
    (the ``*.writing`` → final-name pattern of ``RdbBase``)."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".writing.%d" % os.getpid()
    with open(tmp, "wb") as f:
        f.write(data)
    os.replace(tmp, path)


@dataclass
class RawRows:
    """Undecoded rows of a segment read, in term order: flat columns
    cut from the decompressed blocks (views of them), as
    :func:`decode_posting_row` and :func:`decode_postings` take them.
    ``nbytes`` is the decompressed bytes the read produced."""

    terms: np.ndarray       # uint64, one per row
    df: np.ndarray          # int64 postings per row
    gaps: np.ndarray        # uint64 docId gaps, restarting at each row
    tfs: np.ndarray         # uint32, field-major per row
    dl: np.ndarray          # float32
    nbytes: int
    pos_counts: np.ndarray | None = None    # uint32 positions per posting
    pos_deltas: np.ndarray | None = None    # uint32 gaps, restarting per
                                            # posting


class SegmentReader:
    """Reads term rows from one segment file through its resident footer
    (the searcher keeps one reader, and so one footer, per file;
    :func:`open_segment` shares them).  The file stays open for the
    reader's life and closes when it is collected."""

    def __init__(self, path: str):
        self.path = path
        self._fd = os.open(path, os.O_RDONLY)
        weakref.finalize(self, os.close, self._fd)
        size = os.fstat(self._fd).st_size
        tail = os.pread(self._fd, _TRAILER.size,
                        max(0, size - _TRAILER.size))
        if len(tail) < _TRAILER.size or tail[-len(MAGIC):] != MAGIC:
            found = ("the Parquet layout of format_version 6 or older"
                     if tail[-4:] == b"PAR1" else
                     "no segment magic (truncated, or not a segment)")
            raise ValueError(
                f"segment {path} has {found}; this engine reads "
                f"format_version {IndexConfig.format_version} block files "
                f"— rebuild the index with build_index")
        packed, raw, version, _ = _TRAILER.unpack(tail)
        if version != IndexConfig.format_version:
            raise ValueError(
                f"segment {path} has format_version {version}; this engine "
                f"reads format_version {IndexConfig.format_version} — "
                f"rebuild the index with build_index")
        end = size - _TRAILER.size - packed
        if end < 0:
            raise ValueError(f"segment {path} is truncated: a footer of "
                             f"{packed} bytes in a file of {size}")
        try:
            planes = np.frombuffer(_CODEC.decompress(
                os.pread(self._fd, packed, end), decompressed_size=raw),
                dtype=np.uint8)
        except pa.ArrowException as e:
            raise ValueError(f"segment {path} is corrupt: its footer does "
                             f"not decompress ({e})") from e
        if len(planes) % 8:
            raise ValueError(f"segment {path} is corrupt: a footer of "
                             f"{len(planes)} bytes")
        footer = planes.reshape(8, -1).T.copy().view(np.int64).ravel()
        n, nb, mb = (footer[:3].tolist() + [-1] * 3)[:3]
        at = np.cumsum([3, n, n, n, nb, nb, mb, mb])
        if min(n, nb, mb) < 0 or len(footer) != at[-1]:
            raise ValueError(f"segment {path} is corrupt: a footer of "
                             f"{len(footer)} values")
        terms, df, npos, post_first, post_size, pos_first, pos_size = (
            footer[a:b] for a, b in zip(at[:-1], at[1:]))
        self._terms = np.cumsum(terms.view(np.uint64), dtype=np.uint64)
        if np.any(self._terms[1:] <= self._terms[:-1]):
            raise ValueError(f"segment {path} is not sorted by unique "
                             "term_id")
        # per unit (posting, position): each term's first value, then
        # the total
        self._starts = tuple(np.concatenate([[0], np.cumsum(u)])
                             for u in (df, npos))
        offsets = np.concatenate([[0], np.cumsum(np.concatenate(
            [post_size, pos_size]))]).astype(np.int64)
        if offsets[-1] != end:
            raise ValueError(f"segment {path} is truncated or corrupt: its "
                             f"blocks end at {offsets[-1]}, its footer "
                             f"starts at {end}")
        # per block kind: each block's first term (then n), and its byte
        # offsets, as lists: a read indexes them a few times per block
        self._post = (post_first.tolist() + [n], offsets[:nb + 1].tolist())
        self._pos = (pos_first.tolist() + [n], offsets[nb:].tolist())

    def __contains__(self, term_id: int) -> bool:
        t = np.uint64(term_id)
        i = int(np.searchsorted(self._terms, t))
        return i < len(self._terms) and self._terms[i] == t

    def read_terms(self, term_id: int,
                   with_positions: bool = True) -> RawRows:
        """The row of ``term_id`` (none when the file lacks it, at no
        I/O), with the position columns when ``with_positions``."""
        t = np.uint64(term_id)
        i = int(np.searchsorted(self._terms, t))
        n = int(i < len(self._terms) and self._terms[i] == t)
        return self._run(i, i + n, with_positions)

    def read_all(self) -> RawRows:
        """Every row, positions included (compaction)."""
        return self._run(0, len(self._terms), True)

    def _run(self, i0: int, i1: int, with_positions: bool) -> RawRows:
        """Rows ``[i0, i1)``: one read of each block holding them."""
        (gaps, tfs, dl), nbytes = self._columns(i0, i1, self._post,
                                                _POSTING_BLOCK)
        counts = deltas = None
        if with_positions:
            (counts, deltas), n = self._columns(i0, i1, self._pos,
                                                _POSITION_BLOCK)
            nbytes += n
        return RawRows(self._terms[i0:i1],
                       np.diff(self._starts[0][i0:i1 + 1]), gaps, tfs, dl,
                       nbytes, counts, deltas)

    def _columns(self, i0: int, i1: int, blocks: tuple,
                 layout: tuple) -> tuple:
        """Columns of rows ``[i0, i1)`` from the blocks of one kind
        (``blocks`` = each block's first row, then its byte offsets) →
        (one array per ``layout`` column, decompressed bytes)."""
        first, offsets = blocks
        if i0 == i1:
            return [np.zeros(0, t) for t, _, _ in layout], 0
        b0 = bisect.bisect_right(first, i0) - 1
        b1 = bisect.bisect_right(first, i1 - 1)
        parts: list[list] = [[] for _ in layout]
        nbytes = 0
        for b in range(b0, b1):
            r0, r1 = first[b], first[b + 1]
            counts = [k * int(self._starts[u][r1] - self._starts[u][r0])
                      for _, u, k in layout]
            raw = sum(t.itemsize * c for (t, _, _), c in zip(layout, counts))
            lo, hi = offsets[b], offsets[b + 1]
            data = os.pread(self._fd, hi - lo, lo)
            if len(data) != hi - lo:
                raise ValueError(f"segment {self.path} is truncated at "
                                 f"block bytes {lo}-{hi}")
            buf = _CODEC.decompress(data, decompressed_size=raw)
            at = 0
            for part, (t, _, _), c in zip(parts, layout, counts):
                part.append(np.frombuffer(buf, t, c, at))
                at += t.itemsize * c
            nbytes += raw
        out = []
        for part, (_, u, k) in zip(parts, layout):
            arr = part[0] if len(part) == 1 else np.concatenate(part)
            base = self._starts[u][first[b0]]
            out.append(arr[k * int(self._starts[u][i0] - base):
                           k * int(self._starts[u][i1] - base)])
        return out, nbytes


# live readers by file identity; weak, so a reader lives exactly as long
# as some searcher holds it
_LIVE: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_OPENING = threading.Lock()


def file_identity(path: str, st: os.stat_result) -> tuple:
    """(absolute path, inode, size, mtime_ns): a file rewritten in place
    gets another one."""
    return (os.path.abspath(path), st.st_ino, st.st_size, st.st_mtime_ns)


def live_reader(identity: tuple) -> SegmentReader | None:
    """The reader some searcher already holds of the file with this
    :func:`file_identity`, or None."""
    return _LIVE.get(identity)


def open_segment(path: str) -> SegmentReader:
    """The shared reader of the file at ``path``: the live one when a
    searcher holds it, else a new one, registered for the next.  A file
    rewritten in place has another identity, so it is never served a
    reader of its predecessor."""
    key = file_identity(path, os.stat(path))
    with _OPENING:      # one reader per file, whichever thread asks first
        rd = _LIVE.get(key)
        if rd is None:
            rd = _LIVE[key] = SegmentReader(path)
    return rd


def _restart_cumsum(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Running sums of ``values`` restarting at each group of ``counts``
    values (gaps → absolute values), in uint64: one cumsum over every
    group, then each group's running total before its first value
    subtracted.  uint64 arithmetic wraps exactly, so values ≥ 2^63 come
    back exact."""
    flat = np.cumsum(values, dtype=np.uint64)
    nz = counts > 0
    firsts = (np.cumsum(counts) - counts)[nz]
    flat -= np.repeat(flat[firsts] - values[firsts], counts[nz])
    return flat


def _positions(counts: np.ndarray, deltas: np.ndarray) -> tuple:
    """Per-doc position counts and gaps → (flat uint64, offsets int64)."""
    counts = counts.astype(np.int64)
    return (_restart_cumsum(deltas, counts),
            np.concatenate([[0], np.cumsum(counts)]))


def decode_postings(raw: RawRows, with_positions: bool = False) -> dict:
    """Decode every row of a read into flat per-posting arrays.

    Returns ``term`` and ``doc_ids`` uint64, ``tfs`` (n, NUM_FIELDS) int64,
    ``dl`` float32 and, with positions, ``positions`` = (flat uint64,
    offsets int64 of len n+1).  ``dl`` views the read's buffers: a
    caller that keeps it copies it.
    """
    out = {
        "term": np.repeat(raw.terms, raw.df),
        "doc_ids": _restart_cumsum(raw.gaps, raw.df),
        "tfs": raw.tfs[_field_major_index(raw.df)].astype(np.int64),
        "dl": raw.dl,
    }
    if with_positions:
        out["positions"] = _positions(raw.pos_counts, raw.pos_deltas)
    return out


def decode_posting_row(raw: RawRows, with_positions: bool = False) -> dict:
    """Decode a one-row read — the query path's decode:
    :func:`decode_postings`'s arrays without ``term``, ``tfs`` a
    transpose of the field-major row.  Every array owns its memory, so a
    cache holding one does not pin the read's buffers."""
    docs = np.cumsum(raw.gaps, dtype=np.uint64)
    out = {"doc_ids": docs,
           "tfs": raw.tfs.reshape(NUM_FIELDS, len(docs)).T.astype(np.int64),
           "dl": raw.dl.copy()}
    if with_positions:
        out["positions"] = _positions(raw.pos_counts, raw.pos_deltas)
    return out
