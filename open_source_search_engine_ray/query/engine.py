"""Query engine over a built index (single- or multi-generation).

``IndexSearcher`` is the single-process search path (segment readers +
decoded-list cache, loaded once — the page-cache / ``Msg5`` analogue).  A
multi-generation index (see index/merge.py) is a union of per-generation
segment sets: a term's postings are fetched from every generation, each
generation filtered by the tombstone set (the ``DocumentIndexChecker`` /
newest-file-wins filtering of ``Msg39.cpp:408`` / ``RdbList.cpp:2361``),
then merged docId-sorted.  df is the live posting count after filtering,
and N/avgdl come from the refreshed live stats — so scores over an
incrementally-maintained index are exactly those of a fresh build over the
live corpus (asserted in tests/test_incremental.py).

A reopen keeps what the write did not touch: the new searcher shares the
readers of every unchanged file and takes over the merged lists of the
searcher it replaces, merging each on first use with only the
generations added since, under the current tombstones — the ``Msg5``
cached list merged with the newer files (``Msg5.h:1-60``; see
:class:`IndexSearcher`).

Every query is one :class:`SearchRequest` run through one staged
pipeline, :meth:`IndexSearcher.run` — parse → fetch → restrict → evaluate
→ post, the ``SearchInput::set`` → ``Msg39Request`` → ``Msg39::
getDocIds2``/``controlLoop`` shape of the reference (``Msg39.h:23-90``,
``Msg39.cpp:308-466``).  The fan-out coordinator
(query/distributed.py) is the same searcher with another fetch stage.

It is used three ways: driver-side single-query latency (bench p50);
inside a Ray actor pool for batch evaluation
(:func:`evaluate_queries_distributed` over ``QueryEvalStage`` actors — the
``Msg39``/``Msg3a`` fan-out analogue for a term-partitioned index); and by
tests comparing against the oracle.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
import weakref
from dataclasses import dataclass, fields, replace

import numpy as np
import pyarrow as pa

from ..config import IndexConfig
from ..index.build import hot_shards, load_meta
from ..index.manifest import segment_path
from ..index.merge import (gen_dir, merge_postings, read_generations,
                           read_tombstones)
from ..index.segments import (SegmentReader, decode_posting_row,
                               file_identity, live_reader, open_segment)
from .cache import MISSING, LruBytesCache, approx_nbytes
from .kernel import (BLOCK_MAX_MIN_DF, TermPostings, candidate_docs,
                     evaluate, evaluate_after, evaluate_rerank, select_plan)
from .parse import ParsedQuery, parse_query


def _truncate_postings(tp: TermPostings, max_bytes: int,
                       with_positions: bool = False
                       ) -> tuple[TermPostings, bool]:
    """Cap a decoded list to its first-N postings (docId order) whose
    array payload fits ``max_bytes`` — the per-termlist read cap of the
    reference (``PosdbTable.cpp:1975-1981``, ~30 MB key-ordered
    truncation).  Returns ``(list, truncated?)``; never mutates the
    cached object."""
    per_row = float(tp.doc_ids.itemsize + tp.dl.itemsize
                    + tp.tfs.itemsize * tp.tfs.shape[1])
    if with_positions:
        # the reference's ~30 MB cap bounds the WHOLE termlist read —
        # positions payloads (phrase/proximity terms) must count too,
        # at their average per-posting share.  Only when the request
        # reads them: a cached list may carry positions another request
        # fetched, and the cut must not depend on that
        flat, offs = tp.positions
        n = max(1, len(tp.doc_ids))
        per_row += offs.itemsize + (flat.size * flat.itemsize) / n
    n_keep = max(1, int(max_bytes / per_row))
    if n_keep >= len(tp.doc_ids):
        return tp, False
    positions = None
    if tp.positions is not None:
        from ..functions.ragged import ragged_select

        flat, offs = tp.positions
        positions = ragged_select(flat, offs,
                                  np.arange(n_keep, dtype=np.int64))
    # df stays the ORIGINAL term frequency: the reference caps the list
    # READ, never the corpus df — rewriting df would inflate the idf of
    # exactly the hot terms the cap truncates and let capped stopwords
    # dominate the budgeted ranking
    return TermPostings(
        doc_ids=tp.doc_ids[:n_keep], tfs=tp.tfs[:n_keep],
        dl=tp.dl[:n_keep], df=int(tp.df), positions=positions,
        block_max=None), True


# target postings per docId range of the parallel exact path — below
# this per-range size, task fixed costs beat the kernel time saved
PARALLEL_MIN_POSTINGS = 150_000


def _check_attr_table(table: tuple, name: str):
    """Validate a caller ``(sorted_doc_ids, values)`` table.  The uint64
    id cast is load-bearing: int64 ids would promote the searchsorted
    against uint64 candidates to float64 and misplace 2^53+ hash
    docIds.  Values keep their dtype (facets take strings, sortby keeps
    integer ordering exact)."""
    fids, fvals = table
    fids = np.asarray(fids, dtype=np.uint64)
    fvals = np.asarray(fvals)
    if not (len(fids) == len(fvals) and np.all(fids[:-1] <= fids[1:])):
        raise ValueError(f"{name} must be (sorted ids, values) "
                         "of equal length")
    return fids, fvals


def _attr_join(fids: np.ndarray, fvals: np.ndarray, ids: np.ndarray):
    """Sorted-membership join: → ``(values aligned to ids, hit mask)``;
    values where the mask is False are filler."""
    if len(fids) == 0:
        return np.zeros(len(ids), fvals.dtype), np.zeros(len(ids), bool)
    pos = np.clip(np.searchsorted(fids, ids), 0, len(fids) - 1)
    hit = fids[pos] == ids
    return fvals[pos], hit


def _select_postings(tp: TermPostings,
                     sel: np.ndarray) -> TermPostings | None:
    """Postings at sorted row indices ``sel`` (fancy-index copy) — the
    restricted-list contract shared with :func:`_slice_postings`: ``df``
    stays GLOBAL (idf unchanged), ``block_max`` dropped (bounds belong
    to the full list), empty → ``None`` (absent-term semantics)."""
    if len(sel) == 0:
        return None
    positions = None
    if tp.positions is not None:
        from ..functions.ragged import ragged_select

        positions = ragged_select(*tp.positions, sel)
    return TermPostings(doc_ids=tp.doc_ids[sel], tfs=tp.tfs[sel],
                        dl=tp.dl[sel], df=int(tp.df),
                        positions=positions, block_max=None)


def _slice_postings(tp: TermPostings, lo: int, hi: int
                    ) -> TermPostings | None:
    """Postings restricted to docIds in ``[lo, hi)`` — zero-copy views of
    the docId-sorted arrays (the ragged positions slice is the one copy);
    ``df`` stays the GLOBAL term frequency, so per-doc idf — and thus the
    per-doc score — is identical to a whole-corpus evaluation."""
    i0 = int(np.searchsorted(tp.doc_ids, lo, side="left"))
    i1 = int(np.searchsorted(tp.doc_ids, hi, side="left"))
    if i0 == i1:
        # no postings in this range — identical semantics to a term
        # absent from the index (required → no candidates, negative →
        # nothing to exclude), and the kernel's None handling is the
        # tested path for that
        return None
    positions = None
    if tp.positions is not None:
        flat, offs = tp.positions
        o0, o1 = int(offs[i0]), int(offs[i1])
        positions = (flat[o0:o1], offs[i0:i1 + 1] - o0)
    return TermPostings(doc_ids=tp.doc_ids[i0:i1], tfs=tp.tfs[i0:i1],
                        dl=tp.dl[i0:i1], df=int(tp.df),
                        positions=positions, block_max=None)


def _eval_docid_range(refs: dict, pq_: ParsedQuery, lo: int, hi: int,
                      n_docs: int, avgdl: float, config: IndexConfig,
                      k: int, prior):
    """One docId range of a range-split query: slice every term's list to
    [lo, hi), run the exact kernel, return the range-local top-k.  Term
    payloads arrive as object refs inside ``refs`` (NOT auto-resolved —
    ``ray.get`` here is a zero-copy read of the shared numpy arrays)."""
    import ray

    lists: dict[int, TermPostings | None] = {}
    for tid, ref in refs.items():
        if ref is None:
            lists[tid] = None
            continue
        d = ray.get(ref)
        tp = TermPostings(doc_ids=d["doc_ids"], tfs=d["tfs"], dl=d["dl"],
                          df=int(d["df"]), positions=d.get("positions"))
        lists[tid] = _slice_postings(tp, lo, hi)
    return evaluate(pq_, lists, n_docs, avgdl, config, k, prune=False,
                    prior=prior)


_RANGE_TASK = None


def _get_range_task():
    global _RANGE_TASK
    if _RANGE_TASK is None:
        import ray

        _RANGE_TASK = ray.remote(num_cpus=1)(_eval_docid_range)
    return _RANGE_TASK


def _range_count(lists: dict[int, TermPostings | None], n_ranges) -> int:
    """DocId ranges a split request evaluates over: ``"auto"`` sizes them
    to ~PARALLEL_MIN_POSTINGS postings (at most 16); below 2 — or with no
    Ray session — the single-process kernel runs instead."""
    import ray

    total = sum(len(tp.doc_ids) for tp in lists.values() if tp is not None)
    if n_ranges == "auto":
        n_ranges = min(16, total // PARALLEL_MIN_POSTINGS)
    return int(n_ranges) if total and ray.is_initialized() else 0


def parallel_evaluate(pq_: ParsedQuery,
                      lists: dict[int, TermPostings | None],
                      n_docs: int, avgdl: float, config: IndexConfig,
                      k: int, n_ranges: int,
                      part_refs: LruBytesCache | None, prior=None):
    """EXACT intra-query parallelism: split the docId space into
    ``n_ranges`` ranges, evaluate each range in a Ray task over zero-copy
    slices of the broadcast posting arrays, merge the range top-ks — the
    reference's per-query docid-range split (``Msg39.cpp:411-466`` splits
    each query across hosts by docid range; ``JobScheduler.h:26-31`` runs
    the intersect threads).  BM25F is doc-local (df / N / avgdl stay
    global, every other input is the doc's own row, a prior multiplies
    per doc), so the (score desc, docId asc) merge reproduces the
    single-process ranking exactly.

    ``part_refs`` is the caller's (term, positions?) → ObjectRef cache so
    repeated queries over hot terms pay ``ray.put`` once; it is an
    :class:`LruBytesCache` bounded by the PAYLOAD bytes each ref pins in
    the object store (a count bound would let 256 hot-term lists pin
    gigabytes), and eviction drops the driver's reference so Ray
    reclaims the copy.  ``None`` when the lists are not the cached ones
    (restricted or truncated): their refs must not be reused."""
    import ray

    from ..functions.bm25 import topk_merge

    # boundaries: quantile docIds of the LARGEST list (the dominant
    # scan), so ranges carry near-equal work even under docId skew
    big = max((tp.doc_ids for tp in lists.values()
               if tp is not None), key=len)
    cut_idx = np.linspace(0, len(big) - 1,
                          n_ranges + 1).astype(np.int64)[1:-1]
    cuts = np.unique(big[cut_idx]).astype(np.uint64)
    bounds = np.concatenate([[np.uint64(0)], cuts,
                             [np.uint64(1) << np.uint64(63)]])
    refs: dict[int, object] = {}
    for tid, tp in lists.items():
        if tp is None:
            refs[tid] = None
            continue
        key = (tid, tp.positions is not None)
        ref = part_refs.get(key) if part_refs is not None else None
        if ref is None:
            d = {"doc_ids": tp.doc_ids, "tfs": tp.tfs, "dl": tp.dl,
                 "df": int(tp.df)}
            if tp.positions is not None:
                d["positions"] = tp.positions
            ref = ray.put(d)
            if part_refs is not None:
                part_refs.put(key, ref, size=approx_nbytes(d))
        refs[tid] = ref
    task = _get_range_task()
    futs = [task.remote(refs, pq_, int(lo), int(hi), n_docs,
                        avgdl, config, k, prior)
            for lo, hi in zip(bounds[:-1], bounds[1:])]
    parts = ray.get(futs)
    docs = np.concatenate([p[0] for p in parts])
    scores = np.concatenate([p[1] for p in parts])
    return topk_merge(docs, scores, k)


class _GenIndex:
    """Readers + hot map for one generation directory.

    Construction lists the generation's segment directory once and, per
    file, does one stat and one registry lookup: a file some live
    searcher has open is adopted with its reader (so a reopen after an
    add opens only the new generation's files), and the rest are opened
    on first use.  ``files`` keeps each file's identity from that stat:
    a reopened searcher compares it to tell the generations it can carry
    decoded lists over from.  A term is read only from the files whose
    dictionary holds it."""

    def __init__(self, gen: int, index_dir: str):
        self.gen = gen
        self.meta = load_meta(index_dir)
        self.p = int(self.meta["num_partitions"])
        self.s = int(self.meta["num_salts"])
        self.hot_terms = np.asarray(self.meta["hot_terms"], dtype=np.uint64)
        self._readers: dict[int, SegmentReader] = {}
        self._unopened: dict[int, str] = {}
        self.files: dict[int, tuple] = {}
        seg_dir = os.path.dirname(segment_path(index_dir, 0))
        files = os.scandir(seg_dir) if os.path.isdir(seg_dir) else ()
        for f in files:
            if not (f.name.startswith("part-")
                    and f.name.endswith(".parquet")):
                continue     # e.g. a writer's temporary file
            shard = int(f.name[len("part-"):-len(".parquet")])
            ident = self.files[shard] = file_identity(f.path, f.stat())
            rd = live_reader(ident)
            if rd is not None:
                self._readers[shard] = rd
            else:
                self._unopened[shard] = f.path

    def _reader(self, shard: int) -> SegmentReader | None:
        rd = self._readers.get(shard)
        if rd is None and shard in self._unopened:
            rd = self._readers[shard] = open_segment(
                self._unopened.pop(shard))
        return rd

    def shards_for_term(self, term_id: int) -> list[int]:
        t = np.uint64(term_id)
        part = int(t % np.uint64(self.p))
        if self.meta["config"].get("salt_all_terms"):
            return list(range(part * self.s, (part + 1) * self.s))
        if len(self.hot_terms):
            i = int(np.searchsorted(self.hot_terms, t))
            if i < len(self.hot_terms) and self.hot_terms[i] == t:
                return hot_shards(part, self.p, self.s)
        return [part]

    @property
    def n_shards(self) -> int:
        """One past the highest shard number this generation may hold."""
        if self.meta["config"].get("salt_all_terms"):
            return self.p * self.s
        return self.p * (1 + self.s) if len(self.hot_terms) else self.p

    def raw_postings(self, term_id: int, with_positions: bool = False,
                     owned: frozenset | None = None) -> list[dict]:
        """Decoded rows of ``term_id`` in this generation, one per shard
        holding it — only the ``owned`` shards when given (a shard
        server's share)."""
        decoded = []
        for shard in self.shards_for_term(term_id):
            rd = (self._reader(shard) if owned is None or shard in owned
                  else None)
            if rd is None or term_id not in rd:
                continue
            tbl = rd.read_terms([term_id], with_positions=with_positions)
            decoded.extend(decode_posting_row(tbl.slice(i, 1), with_positions)
                           for i in range(tbl.num_rows))
        return decoded


def open_generations(index_dir: str) -> list[_GenIndex]:
    """Every generation of an index, oldest first.  Called while an older
    searcher of the index is still alive (``se = IndexSearcher(idx)``),
    it shares that searcher's readers of every unchanged file."""
    gens = read_generations(index_dir)["generations"]
    return [_GenIndex(g["gen"], gen_dir(index_dir, g["gen"]))
            for g in sorted(gens, key=lambda g: g["gen"])]


@dataclass
class SearchRequest:
    """One query with every option the pipeline takes (the
    ``SearchInput``/``Msg39Request`` analogue).  Unset options keep their
    defaults; :meth:`validate` refuses combinations that have no single
    meaning, before any list is fetched.

    Parse: ``lang`` picks the query stopwords.  ``synonyms`` is a
    token→alternatives dict, or ``"default"`` for the shipped
    number-variant + curated-set + word-variation table
    (functions/synonyms.py), expanded in the query language.
    ``wiki_bigrams`` is a phrase dictionary (or ``"default"`` for the
    shipped curated set): bigram boost terms whose pair is in it get the
    ``WIKI_BIGRAM_WEIGHT²`` boost (functions/wiki_phrases.py;
    ``PosdbTable.cpp:436``).  ``qlang`` is the query language of the
    ``PosdbTable.cpp:3918`` ``langWeight``: it is also the parse
    language, and documents whose classified language (query/langprior.py,
    built from the live docstore on first use) differs score
    ×``lang_weight`` (default ``DEFAULT_LANG_WEIGHT``).

    Scoring: ``field_weights`` overrides the per-role/tool weights (the
    reference's per-search ``&hgw_*`` parms, ``Parms.cpp:3730-3875``); the
    tf side re-weights exactly, the per-posting doc length stays frozen
    at build weights (the oracle applies the same rule).  ``doc_prior``
    is a ``(sorted_doc_ids uint64, multipliers float64)`` static prior:
    score = BM25F × multiplier, 1.0 for absent docs — the SiteRank /
    doc-flag multiplier (``PosdbTable.cpp:3686-3693,3901-3941``).
    ``rerank="proximity"`` applies the term-pair min-distance boost over
    the top-(oversample·k) BM25F page (:func:`kernel.evaluate_rerank`).

    Fetch budget (``Msg39.cpp:429-444`` deadline, ``PosdbTable.cpp:
    1975-1981`` termlist cap): ``timeout_ms`` is checked before each
    term's list fetch — a term whose fetch would start past it is absent;
    ``max_list_bytes`` truncates each list to the docId-ordered prefix
    that fits.  Either sets ``partial``; the results are the exact
    evaluation over the surviving lists, and an unhit budget changes
    nothing.

    Restrict: ``doc_ids`` evaluates over only those documents (the
    ``gbdocid:`` ``m_docIdRestriction``, ``Query.cpp:287-297``); df/idf
    stay global, so the result is a full-depth ranking filtered to the
    set.

    Evaluate: ``n_ranges`` (an int, or ``"auto"`` to size ranges to
    ~PARALLEL_MIN_POSTINGS postings) splits the docId space across Ray
    tasks, exactly (:func:`parallel_evaluate`).  ``after=(score, doc_id)``
    returns the ``k`` results strictly after that cursor
    (``PosdbTable.cpp:3948-3983`` ``minSerpDocId``/``maxSerpScore``); the
    cursor filters BEFORE top-k selection (:func:`kernel.evaluate_after`),
    so a step costs the same at any depth.  ``telemetry`` (a dict) makes
    it a cursor request even without ``after`` and receives its
    ``scanned``/``pool`` counts.

    Post: results are ranks ``[offset, offset + k)``
    (``SearchInput.h:177-178``); ``with_total`` adds the EXACT match count
    (``Msg39.cpp:486-523``).  ``facet`` (``"lang"``: the doclang
    classification) or ``facet_table=(sorted_doc_ids, values)`` asks for
    the top-``k_facets`` histogram of the attribute over the exact
    matching set instead of a page (``gbfacetstr:``/``gbfacetint:``,
    ``Query.cpp:1388-1779``).  ``attr_table=(sorted_doc_ids, numeric
    values)`` asks for the top-k matches by (value, docId asc),
    ``descending`` and within ``[min_val, max_val]`` (``gbsortby:`` +
    ``gbmin:``/``gbmax:``, ``Query.cpp:1700-1720,3150``); integer values
    keep integer ordering, docs absent from the table are dropped."""

    query: str
    k: int = 10
    lang: str = "en"
    synonyms: dict[str, list[str]] | str | None = None
    wiki_bigrams: frozenset | str | None = None
    qlang: str | None = None
    lang_weight: float | None = None
    field_weights: tuple | None = None
    doc_prior: tuple | None = None
    rerank: str | None = None
    oversample: int = 4
    timeout_ms: float | None = None
    max_list_bytes: int | None = None
    doc_ids: np.ndarray | list[int] | None = None
    n_ranges: int | str | None = None
    after: tuple | None = None
    telemetry: dict | None = None
    offset: int = 0
    with_total: bool = False
    facet: str | None = None
    k_facets: int = 10
    facet_table: tuple | None = None
    attr_table: tuple | None = None
    descending: bool = True
    min_val: float | None = None
    max_val: float | None = None

    def options(self) -> set[str]:
        """Names of the options set away from their defaults."""
        return {name for name, default in _DEFAULTS
                if (getattr(self, name) is not None if default is None
                    else getattr(self, name) != default)}

    def validate(self) -> None:
        """Raise ``ValueError`` for a request the pipeline refuses."""
        on = self.options()
        for a, b in _REFUSED:
            if on & a and on & b:
                raise ValueError(f"{'/'.join(sorted(on & a))} cannot be "
                                 f"combined with {'/'.join(sorted(on & b))}")
        if "lang_weight" in on and "qlang" not in on:
            raise ValueError("lang_weight needs qlang")
        if self.rerank not in (None, "proximity"):
            raise ValueError(f"unknown rerank {self.rerank!r}")
        if self.facet not in (None, "lang") and self.facet_table is None:
            raise ValueError(
                f"unknown facet {self.facet!r}: use 'lang' or pass "
                "facet_table")


_DEFAULTS = [(f.name, f.default) for f in fields(SearchRequest)[1:]]
# facet and sortby requests answer over the exact matching set: options
# that only order or page a ranking do not apply to them
_RANKING = {"rerank", "doc_prior", "qlang", "field_weights", "n_ranges",
            "after", "telemetry", "offset", "with_total"}
_FACET = {"facet", "facet_table"}
# (a, b): a request sets options of a or of b, never of both
_REFUSED = [
    # one evaluator per request, and one kind of paging
    ({"after", "telemetry"}, {"offset", "rerank", "n_ranges"}),
    ({"rerank"}, {"n_ranges"}),
    # the boost and a static multiplier compose ambiguously
    # (boost-then-multiply vs multiply-then-boost differ)
    ({"rerank"}, {"doc_prior", "qlang"}),
    ({"doc_prior"}, {"qlang"}),
    (_FACET, _RANKING | {"attr_table"}),
    ({"attr_table"}, _RANKING),
]


@dataclass
class SearchResult:
    """``doc_ids``/``scores`` of the page (for a sortby request, the
    attribute values); ``total`` with ``with_total`` (and for facets);
    ``cursor``, the ``after`` that continues a full page under the same
    options; ``partial`` when the fetch budget was hit;
    ``facets=(values, counts)`` of a facet request."""

    doc_ids: np.ndarray
    scores: np.ndarray
    total: int | None = None
    cursor: tuple | None = None
    partial: bool = False
    facets: tuple | None = None


def _restrict(lists: dict[int, TermPostings | None],
              doc_ids) -> dict[int, TermPostings | None]:
    """Each list cut to the postings of ``doc_ids``
    (:func:`_select_postings`: df stays global, block maxima dropped)."""
    restrict = np.unique(np.asarray(list(doc_ids), dtype=np.uint64))
    out: dict[int, TermPostings | None] = {}
    for tid, tp in lists.items():
        if tp is None:
            out[tid] = None
            continue
        # probe the SMALL side into the list: O(|restrict| log n) per
        # term, not O(n log |restrict|) — a hot-term list is orders of
        # magnitude longer than a candidate set
        idx = np.minimum(np.searchsorted(tp.doc_ids, restrict),
                         len(tp.doc_ids) - 1)
        found = tp.doc_ids[idx] == restrict
        out[tid] = _select_postings(tp, idx[found].astype(np.int64))
    return out


def _facet_counts(fids: np.ndarray, fvals: np.ndarray, ids: np.ndarray,
                  k: int):
    """Top-``k`` ``(values, counts)`` of the attribute over ``ids``,
    ranked (count desc, value asc) with values compared in their own
    dtype (numbers numerically).  Docs absent from the table count as
    ``"unknown"``, ranked by the same rule among string values and after
    the values of its count otherwise."""
    joined, hit = _attr_join(fids, fvals, ids)
    uniq, cnt = np.unique(joined[hit], return_counts=True)
    order = np.lexsort((uniq, -cnt))
    vals, counts = uniq[order].tolist(), cnt[order].tolist()
    miss = len(ids) - int(hit.sum())
    if miss:
        at = next((i for i, (v, c) in enumerate(zip(vals, counts))
                   if c < miss or (c == miss and isinstance(v, str)
                                   and v > "unknown")), len(vals))
        vals.insert(at, "unknown")
        counts.insert(at, miss)
    return vals[:k], np.asarray(counts[:k], dtype=np.int64)


def _sort_by_attr(req: SearchRequest, fids: np.ndarray, fvals: np.ndarray,
                  ids: np.ndarray):
    """Top-k matches by (attribute, docId asc) within the request's
    bounds → ``(doc_ids, values)``."""
    joined, hit = _attr_join(fids, fvals, ids)
    ids, vals = ids[hit], joined[hit]
    keep = np.ones(len(ids), dtype=bool)
    if req.min_val is not None:
        keep &= vals >= req.min_val
    if req.max_val is not None:
        keep &= vals <= req.max_val
    ids, vals = ids[keep], vals[keep]
    order = np.lexsort((ids, -vals if req.descending else vals))[:req.k]
    return ids[order], vals[order]


# every live plain IndexSearcher, keyed (absolute index directory,
# construction order); weak, so no searcher is kept alive to hand over
# its lists
_SEARCHERS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_SEARCHERS_LOCK = threading.Lock()
_ORDER = itertools.count()


def _carry_gen(prev: IndexSearcher, cur: IndexSearcher) -> int | None:
    """``prev``'s newest generation when its merged lists, entered into
    :func:`merge_postings` as parts of that generation, merge exactly
    into ``cur``'s lists; else None.  They do when ``prev``'s generations
    are a prefix of ``cur``'s with the same files, no tombstone of
    ``prev``'s is gone or lowered, and every new or raised one kills at
    least that generation (``delete_docs`` writes the newest, an add the
    one before its own), so re-masking the list at that generation kills
    exactly the postings a fresh merge would."""
    old = [(g.gen, g.files) for g in prev._gens]
    if [(g.gen, g.files) for g in cur._gens[:len(old)]] != old:
        return None
    newest = old[-1][0]
    pdoc, pdead = prev.tomb_doc, prev.tomb_dead
    cdoc, cdead = cur.tomb_doc, cur.tomb_dead
    at = np.searchsorted(cdoc, pdoc)
    if len(pdoc) and not (at[-1] < len(cdoc) and np.array_equal(cdoc[at], pdoc)
                          and (cdead[at] >= pdead).all()):
        return None
    changed = np.ones(len(cdoc), dtype=bool)
    changed[at] = cdead[at] != pdead
    return newest if (cdead[changed] >= newest).all() else None


def _as_part(tp: TermPostings, with_positions: bool) -> dict:
    """A merged list as one :func:`merge_postings` part, without its block
    maxima (they hold for the avgdl it was scored with)."""
    part = {"doc_ids": tp.doc_ids, "tfs": tp.tfs, "dl": tp.dl,
            "block_max": None}
    if with_positions:
        part["positions"] = tp.positions
    return part


class IndexSearcher:
    """Search over every generation of an index, with a byte-bounded
    cache of merged lists (``cache_bytes``).

    Carried lists — the ``Msg5`` cached list merged with only the files
    it still has to read (``Msg5.h:1-60``): a searcher constructed while
    an older plain ``IndexSearcher`` of the same directory is alive takes
    over the merged lists of the newest such searcher whose lists are
    exact for it (:func:`_carry_gen`), the most recent that fit its own
    budget.  A carried list's first fetch merges it, re-masked by the
    current tombstones, with the parts of only the generations added
    since, and recomputes its block maxima at the current avgdl.  A
    compaction or rebuild changes the files, so nothing is carried.
    ``carried`` counts the lists served from a carried entry.
    Subclasses (the fan-out coordinator) neither take over nor hand over
    lists."""

    def __init__(self, index_dir: str, cache_bytes: int = 256 << 20):
        self.index_dir = index_dir
        self._gens = open_generations(index_dir)
        self.meta = self._gens[0].meta
        cfg = dict(self.meta["config"])
        cfg["field_weights"] = tuple(cfg["field_weights"])
        self.config = IndexConfig(**cfg)
        live = read_generations(index_dir).get("live_stats")
        if live:
            self.n_docs = int(live["n_docs"])
            self.avgdl = float(live["avgdl"])
        else:
            self.n_docs = int(self.meta["n_docs"])
            self.avgdl = float(self.meta["avgdl"])
        self.tomb_doc, self.tomb_dead = read_tombstones(index_dir)
        # byte-bounded LRU (the RdbCache budget analogue) — a long-lived
        # serving actor can't grow without limit under a distinct-term
        # query stream; hot stopword lists stay resident via recency
        self._cache = LruBytesCache(cache_bytes)
        # object-store refs of broadcast term payloads for the parallel
        # exact path (ray.put once, zero-copy read per range task);
        # byte-bounded like the decoded-list cache — each ref pins its
        # full payload in the object store until evicted
        self._part_refs = LruBytesCache(cache_bytes)
        self.carried = 0
        # the newest generation of the searcher whose lists were carried
        # over
        self._since = None
        if type(self) is IndexSearcher:
            self._adopt()

    def _adopt(self) -> None:
        """Register as a live searcher of the index and take over the
        merged lists of the newest older one whose lists carry.  Every
        live searcher stays registered, so dropping a short-lived one
        (``delete_by_query``'s) leaves the one still serving to hand
        over."""
        key = os.path.abspath(self.index_dir)
        with _SEARCHERS_LOCK:
            older = sorted(((n, se) for (d, n), se in _SEARCHERS.items()
                            if d == key), key=lambda item: -item[0])
            _SEARCHERS[(key, next(_ORDER))] = self
        for _, prev in older:
            since = _carry_gen(prev, self)
            if since is not None:
                self._since = since
                # the predecessor's own carried entries are not exact
                # for its state: take_over leaves them behind
                self._cache.take_over(prev._cache)
                return

    # -- fetch ---------------------------------------------------------

    def _cached(self, term_id: int, with_positions: bool):
        """The cached merged list that serves a fetch (one with positions
        serves one without), or MISSING."""
        return self._cache.lookup(
            ((term_id, True),) if with_positions
            else ((term_id, False), (term_id, True)), MISSING)

    def _take_carried(self, term_id: int, with_positions: bool):
        """Remove the carried entry that serves a fetch → ``(positions?,
        list)``, or ``(with_positions, MISSING)``."""
        if self._since is not None:
            for wp in (True,) if with_positions else (False, True):
                tp = self._cache.take((term_id, wp), MISSING)
                if tp is not MISSING:
                    self.carried += 1
                    return wp, tp
            if with_positions:      # the list read next serves its fetches
                self._cache.take((term_id, False))
        return with_positions, MISSING

    def get_postings(self, term_id: int,
                     with_positions: bool = False) -> TermPostings | None:
        hit = self._cached(term_id, with_positions)
        if hit is not MISSING:
            return hit
        wp, tp = self._take_carried(term_id, with_positions)
        if tp is MISSING:
            tp = self._merge_parts(
                [(g.gen, d) for g in self._gens
                 for d in g.raw_postings(term_id, wp)], wp)
        else:
            parts = [] if tp is None else [(self._since, _as_part(tp, wp))]
            tp = self._merge_parts(
                parts + [(g.gen, d) for g in self._gens if g.gen > self._since
                         for d in g.raw_postings(term_id, wp)], wp)
        self._cache.put((term_id, wp), tp)
        return tp

    def _merge_parts(self, parts: list[tuple[int, dict]],
                     with_positions: bool) -> TermPostings | None:
        """One term's ``(gen, decoded part)`` list → its live postings,
        merged by :func:`index.merge.merge_postings`, with block maxima
        for the pruned plans."""
        m = merge_postings(parts, (self.tomb_doc, self.tomb_dead),
                           with_positions)
        if m is None:
            return None
        # stored block maxima are admissible only for an untouched
        # single-generation single-split list scored with the build avgdl
        stored_ok = (m["block_max"] is not None and len(self._gens) == 1
                     and len(self.tomb_doc) == 0
                     and float(self.meta["avgdl"]) == self.avgdl)
        tp = TermPostings(
            doc_ids=m["doc_ids"], tfs=m["tfs"], dl=m["dl"],
            df=int(len(m["doc_ids"])), positions=m.get("positions"),
            # a copy: the decoded block maxima view the segment read's
            # buffers, which the cache budget does not count
            block_max=m["block_max"].copy() if stored_ok else None)
        if tp.block_max is None and tp.df >= BLOCK_MAX_MIN_DF:
            # recompute (once, cached): salted/merged/maintained lists keep
            # a pruning path too — the cost is one scan, amortized across
            # queries hitting this term
            from ..functions.bm25 import max_block_impact

            wq = np.asarray([int(round(w * 4))
                             for w in self.config.field_weights],
                            dtype=np.int64)
            tfw = (tp.tfs @ wq).astype(np.float64) / 4.0
            tp.block_max = max_block_impact(
                tfw, tp.dl, self.avgdl, self.config.k1, self.config.b,
                self.config.block_size)
        return tp

    def _collect_lists(self, pq_: ParsedQuery, position_ids: set[int],
                       deadline: float | None, max_list_bytes: int | None):
        """Fetch stage → ``(lists, partial)``: every term's merged
        postings (with positions for ``position_ids``).  Past the
        ``deadline`` (``time.monotonic()``) a term's fetch is skipped and
        the term is absent; ``max_list_bytes`` truncates each list
        (:func:`_truncate_postings`).  Either sets ``partial``."""
        partial = False
        lists: dict[int, TermPostings | None] = {}
        for t in pq_.terms:
            if t.term_id in lists:
                continue
            if deadline is not None and time.monotonic() > deadline:
                lists[t.term_id] = None
                partial = True
                continue
            wp = t.term_id in position_ids
            tp = self.get_postings(t.term_id, with_positions=wp)
            if tp is not None and max_list_bytes is not None:
                tp, cut = _truncate_postings(tp, max_list_bytes, wp)
                partial = partial or cut
            lists[t.term_id] = tp
        return lists, partial

    # -- the pipeline --------------------------------------------------

    def run(self, req: SearchRequest) -> SearchResult:
        """Answer one request through the fixed stages: parse → fetch →
        restrict → evaluate → post."""
        req.validate()
        table = self._attr_table(req)
        pq_, prior, lists, partial = self._prepare(req)
        if table is not None:
            ids = candidate_docs(pq_, lists)
            if req.attr_table is not None:
                return SearchResult(*_sort_by_attr(req, *table, ids),
                                    partial=partial)
            return SearchResult(
                ids[:0], np.zeros(0), total=int(len(ids)), partial=partial,
                facets=_facet_counts(*table, ids, req.k_facets))
        docs, scores = self._evaluate(req, pq_, lists, prior, partial)
        docs, scores = docs[req.offset:], scores[req.offset:]
        # no cursor after a reranked page: the boost reorders the ranking
        # a cursor request continues
        full = len(docs) == req.k and req.rerank is None
        return SearchResult(
            docs, scores,
            total=(int(len(candidate_docs(pq_, lists)))
                   if req.with_total else None),
            cursor=(float(scores[-1]), int(docs[-1])) if full else None,
            partial=partial)

    def search(self, query: str, k: int = 10, **options):
        """``run(SearchRequest(query, k, **options))`` → ``(doc_ids,
        scores)``: exact BM25F top-k."""
        res = self.run(SearchRequest(query, k, **options))
        return res.doc_ids, res.scores

    def _attr_table(self, req: SearchRequest):
        """The validated ``(sorted ids, values)`` table of a facet or
        sortby request; None for a ranked one."""
        if req.attr_table is not None:
            fids, fvals = _check_attr_table(req.attr_table, "attr_table")
            if fvals.dtype.kind == "u":
                if len(fvals) and int(fvals.max()) >= (1 << 63):
                    raise ValueError("uint64 attribute values >= 2^63 are "
                                     "not sortable (int64 negate overflow)")
                fvals = fvals.astype(np.int64)
            elif fvals.dtype.kind not in "if":
                fvals = np.asarray(fvals, dtype=np.float64)
            return fids, fvals
        if req.facet_table is not None:
            return _check_attr_table(req.facet_table, "facet_table")
        if req.facet == "lang":
            from .langprior import doclang_cached

            return doclang_cached(self.index_dir)
        return None

    def _prepare(self, req: SearchRequest):
        """Parse → fetch → restrict stages of a validated request →
        ``(parsed, prior, lists, partial)``."""
        deadline = (time.monotonic() + req.timeout_ms / 1000.0
                    if req.timeout_ms is not None else None)
        lang = req.qlang or req.lang
        synonyms, wiki, prior = req.synonyms, req.wiki_bigrams, req.doc_prior
        if synonyms == "default":
            from ..functions.synonyms import synonyms_table

            synonyms = synonyms_table(lang)   # expansion follows qlang
        if wiki == "default":
            from ..functions.wiki_phrases import DEFAULT_WIKI_BIGRAMS

            wiki = DEFAULT_WIKI_BIGRAMS
        if req.qlang is not None:
            from .langprior import DEFAULT_LANG_WEIGHT, language_prior

            prior = language_prior(
                self.index_dir, req.qlang, DEFAULT_LANG_WEIGHT
                if req.lang_weight is None else req.lang_weight)
        pq_ = parse_query(req.query, self.config.bigram_weight,
                          synonyms=synonyms, lang=lang,
                          position_mode=self.config.position_mode,
                          wiki_bigrams=wiki)
        position_ids = pq_.position_term_ids()
        if req.rerank == "proximity":
            # the boost reads the positions of every scoring term
            position_ids = position_ids | {
                t.term_id for t in pq_.terms
                if not t.negative and not t.is_bigram}
        lists, partial = self._collect_lists(pq_, position_ids, deadline,
                                             req.max_list_bytes)
        if req.doc_ids is not None:
            lists = _restrict(lists, req.doc_ids)
        return pq_, prior, lists, partial

    def _evaluate(self, req: SearchRequest, pq_: ParsedQuery, lists: dict,
                  prior, partial: bool, plan_only: bool = False):
        """Evaluate stage → ``(doc_ids, scores)`` of the top ``offset +
        k`` (the ``k`` after the cursor) — or, with ``plan_only``, the
        :func:`kernel.select_plan` tag of that evaluation, so
        :meth:`explain` reports the plan :meth:`run` takes.  Pruning
        bounds hold only for full lists at build weights without a
        prior, so a budget cut, a restriction, a weight override or a
        prior evaluates exactly."""
        cfg = self.config
        if req.field_weights is not None and \
                tuple(req.field_weights) != tuple(cfg.field_weights):
            cfg = replace(cfg, field_weights=tuple(req.field_weights))
        exact_lists = partial or req.doc_ids is not None
        prune = not exact_lists and prior is None and cfg is self.config
        k = req.offset + req.k
        args = (pq_, lists, self.n_docs, self.avgdl, cfg)
        if req.after is not None or req.telemetry is not None:
            if plan_only:
                return "exact"
            return evaluate_after(*args, req.k, after=req.after,
                                  telemetry=req.telemetry, prior=prior)
        if req.rerank == "proximity":
            if plan_only:
                return select_plan(pq_, lists, max(req.oversample * k, k),
                                   prune)
            return evaluate_rerank(*args, k, prune=prune,
                                   oversample=req.oversample)
        n_ranges = (_range_count(lists, req.n_ranges)
                    if req.n_ranges is not None else 0)
        if n_ranges > 1:
            if plan_only:
                return "exact"     # every range evaluates exactly
            return parallel_evaluate(
                *args, k, n_ranges,
                None if exact_lists else self._part_refs, prior=prior)
        if plan_only:
            return select_plan(pq_, lists, k, prune)
        return evaluate(*args, k, prune=prune, prior=prior)

    def explain(self, req: SearchRequest) -> dict:
        """Query plan inspection (the PageStats/&debug=1 analogue) of the
        request :meth:`run` would answer: parsed terms with per-term
        df/idf, phrase chains, OR units, boolean tree, the evaluation
        plan, and the re-rank stage when one is requested."""
        from ..functions.bm25 import idf as bm25_idf

        req.validate()
        pq_, prior, lists, partial = self._prepare(req)
        terms = []
        for t in pq_.terms:
            tp = lists.get(t.term_id)
            terms.append({
                "token": t.token, "term_id": t.term_id,
                "required": t.required, "negative": t.negative,
                "is_bigram": t.is_bigram, "field": t.field,
                "weight": t.weight,
                "df": int(tp.df) if tp else 0,
                "idf": float(bm25_idf(tp.df, self.n_docs)) if tp else None,
            })
        # facet and sortby requests only generate candidates
        plan = ("exact" if req.options() & (_FACET | {"attr_table"}) else
                self._evaluate(req, pq_, lists, prior, partial,
                               plan_only=True))
        if pq_.bool_tree is not None:
            path = "boolean-tree"
        elif pq_.phrases or pq_.neg_phrases or pq_.or_groups:
            path = "exact (phrase/or-unit filters)"
        else:
            path = {
                "impact-single": "impact-ordered single-term",
                "blockmax-single": "block-max single-term",
                "maxscore": "MaxScore disjunction",
                "impact-union": "impact-ordered union",
            }.get(plan, "exact" if len(pq_.terms) <= 1
                  else "exact (required-unit intersection)")
        k = req.offset + req.k
        return {
            "query": req.query, "n_docs": self.n_docs, "avgdl": self.avgdl,
            "terms": terms, "phrases": pq_.phrases,
            "neg_phrases": pq_.neg_phrases, "or_groups": pq_.or_groups,
            "bool_tree": pq_.bool_tree, "plan": plan, "eval_path": path,
            "rerank": (f"proximity (term-pair min-dist boost over "
                       f"top-{max(req.oversample * k, k)})"
                       if req.rerank == "proximity" else None),
        }

    def related_terms(self, query: str, k_terms: int = 10,
                      sample_docs: int = 100, lang: str = "en"):
        """Related-topics summary of the result page — the Gigabits
        surface (``html/faq.html:333``; generated in ``Msg40``'s result
        post-processing).  → ``[(term, n_result_docs), ...]`` ranked
        (count desc, term asc); see query/related.py for the contract."""
        from .related import related_terms

        return related_terms(self, query, k_terms=k_terms,
                             sample_docs=sample_docs, lang=lang)


class QueryEvalStage:
    """Actor-pool callable: batch of ``(query_id, query, k)`` → top-k
    rows per query."""

    SCHEMA = pa.schema([("query_id", pa.string()), ("rank", pa.int64()),
                        # 63-bit-safe
                        ("doc_id", pa.int64()), ("score", pa.float64())])

    def __init__(self, index_dir: str):
        self.searcher = IndexSearcher(index_dir)

    def __call__(self, batch: list[tuple[str, str, int]]) -> pa.Table:
        out = {"query_id": [], "rank": [], "doc_id": [], "score": []}
        for qid, q, k in batch:
            docs, scores = self.searcher.search(q, int(k))
            n = len(docs)
            out["query_id"].extend([str(qid)] * n)
            out["rank"].extend(range(1, n + 1))
            out["doc_id"].extend(int(d) for d in docs)
            out["score"].extend(float(s) for s in scores)
        return pa.table(out, schema=self.SCHEMA)


def evaluate_queries_distributed(index_dir: str, queries: list[tuple[str, str, int]],
                                 concurrency: int = 4):
    """Batch query evaluation over a pool of ``QueryEvalStage`` actors →
    a Dataset of (query_id, rank, doc_id, score) (bench path).

    It runs when called and kills its pool before it returns, so no
    actor outlives the call.  (A Ray Data actor pool does outlive it:
    the executed Dataset reaches its actor handles through reference
    cycles, which hold one CPU per actor until a garbage collection.)"""
    import ray.data
    from ray.util import ActorPool

    # small batches so the pool load-balances: one skewed query (a
    # stopword disjunction) must not serialize the whole pool behind one
    # actor's single giant batch
    batches = [queries[i:i + 2] for i in range(0, len(queries), 2)]
    if not batches:
        return ray.data.from_arrow(QueryEvalStage.SCHEMA.empty_table())
    # actors past the free CPUs would never start, and a pool waits for
    # every actor it hands a batch to
    free = int(ray.available_resources().get("CPU", 0))
    n = max(1, min(concurrency, len(batches), free))
    stage = ray.remote(num_cpus=1)(QueryEvalStage)
    actors = [stage.remote(index_dir) for _ in range(n)]
    try:
        parts = list(ActorPool(actors).map(
            lambda actor, b: actor.__call__.remote(b), batches))
    finally:
        for actor in actors:
            ray.kill(actor)
    return ray.data.from_arrow(pa.concat_tables(parts))
