"""Spell correction / query suggestion over the corpus vocabulary.

The reference's Speller (``Speller.cpp:19-54`` — ``getPhrasePopularity``
dictionary lookup against a popularity-ranked wordlist) suggests
corrections for query terms that miss or hit rare dictionary entries.
The Ray-native analogue:

- **Vocabulary build** (``build_vocab``): one streaming pass over the
  index's LIVE docstore (tombstones applied, the same view every other
  maintenance job reads) — map-side partial term counts (a per-batch
  numpy ``unique`` combine, so the shuffle carries one row per distinct
  term per batch, not per occurrence),
  one ``groupby(term)`` Sum, then ``sort(cf desc).limit(max_terms)``.
  The capped vocabulary (suggestion dictionaries only ever want the
  frequent head — exactly the reference's popularity dictionary) is
  written as ``vocab.parquet`` beside the generations file.

- **Lookup** (``SpellSuggester``): SymSpell-style deletion-neighborhood
  index (Garbe's public symmetric-delete algorithm): every vocab term
  pre-generates its deletes up to ``max_edit`` within a ``prefix_len``
  window; a query term's own deletes intersect that dictionary, and
  survivors are verified with true Damerau-Levenshtein (optimal string
  alignment) distance.  Candidates rank by (distance asc, cf desc,
  term asc) — distance first, popularity as the tie-break, exactly the
  Speller's popularity ordering.  The dictionary builds once per
  process and is O(vocab × prefix deletes) memory — broadcast-sized,
  the same "small side in every worker" shape as the synonym tables.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

VOCAB_FILE = "vocab.parquet"
VOCAB_MAX_TERMS = 1_000_000     # head of the popularity distribution
MAX_EDIT = 2
PREFIX_LEN = 7


def _vocab_path(out_dir: str) -> str:
    return os.path.join(out_dir, VOCAB_FILE)


def build_vocab(out_dir: str, max_terms: int = VOCAB_MAX_TERMS) -> str:
    """Build (term, cf) over the index's live docstore and write the
    popularity-capped vocabulary parquet.  Returns the file path."""
    from ..functions.tokenizer import tokenize
    from ..index.merge import live_docs_ds

    def partial(b: pa.Table) -> pa.Table:
        toks: list[str] = []
        for t in b["text"].to_pylist():
            w, _, _ = tokenize(t or "")
            toks.extend(s.lower() for s in w)
        if not toks:
            return pa.table({"term": pa.array([], pa.string()),
                             "cf": pa.array([], pa.int64())})
        terms, counts = np.unique(np.asarray(toks, dtype=object),
                                  return_counts=True)
        return pa.table({"term": pa.array(terms, pa.string()),
                         "cf": pa.array(counts.astype(np.int64))})

    from ray.data.aggregate import Sum

    vocab = (live_docs_ds(out_dir, "docstore", columns=["text"])
             .map_batches(partial, batch_format="pyarrow")
             .groupby("term").aggregate(Sum("cf", alias_name="cf"))
             .sort(["cf", "term"], descending=[True, False])
             .limit(max_terms))
    df = vocab.to_pandas()
    if "term" not in df.columns:           # empty corpus: typed empty
        tbl = pa.table({"term": pa.array([], pa.string()),
                        "cf": pa.array([], pa.int64())})
    else:
        tbl = pa.table({"term": pa.array(df["term"], pa.string()),
                        "cf": pa.array(df["cf"].astype(np.int64))})
    from ..index.merge import index_state_token

    path = _vocab_path(out_dir)
    tmp = path + ".tmp"
    tbl = tbl.replace_schema_metadata(
        {b"index_state": index_state_token(out_dir).encode()})
    pq.write_table(tbl, tmp)
    os.replace(tmp, path)
    return path


def ensure_vocab(out_dir: str, max_terms: int = VOCAB_MAX_TERMS) -> str:
    """Build the vocabulary if absent OR stale (the index was maintained
    — add/delete/compact — after the vocab was written; the embedded
    index-state token is the check).  Returns the vocab path."""
    from ..index.merge import index_state_token

    path = _vocab_path(out_dir)
    if os.path.exists(path):
        meta = pq.read_schema(path).metadata or {}
        if meta.get(b"index_state", b"").decode() == index_state_token(
                out_dir):
            return path
    return build_vocab(out_dir, max_terms)


def _deletes(word: str, max_edit: int, prefix_len: int) -> set[str]:
    """All strings reachable by deleting up to ``max_edit`` chars from
    the first ``prefix_len`` chars of ``word`` (SymSpell dictionary
    key set; includes the word/prefix itself)."""
    root = word[:prefix_len]
    out = {root}
    frontier = {root}
    for _ in range(max_edit):
        nxt = set()
        for w in frontier:
            for i in range(len(w)):
                d = w[:i] + w[i + 1:]
                if d not in out:
                    out.add(d)
                    nxt.add(d)
        frontier = nxt
    return out


def _osa_distance(a: str, b: str, cap: int) -> int:
    """Damerau-Levenshtein (optimal string alignment) with early-exit
    once every cell in a row exceeds ``cap`` (returns cap+1)."""
    la, lb = len(a), len(b)
    if abs(la - lb) > cap:
        return cap + 1
    prev2: list[int] | None = None
    prev = list(range(lb + 1))
    for i in range(1, la + 1):
        cur = [i] + [0] * lb
        row_min = i
        for j in range(1, lb + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            v = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost)
            if (prev2 is not None and i > 1 and j > 1
                    and a[i - 1] == b[j - 2] and a[i - 2] == b[j - 1]):
                v = min(v, prev2[j - 2] + 1)
            cur[j] = v
            if v < row_min:
                row_min = v
        if row_min > cap:
            return cap + 1
        prev2, prev = prev, cur
    return prev[lb] if prev[lb] <= cap else cap + 1


class SpellSuggester:
    """Deletion-neighborhood suggester over a built vocabulary.

    ``suggest(term)`` → list of (term, distance, cf) ranked by
    (distance, -cf, term); ``correct_query(q)`` rewrites each
    out-of-vocabulary query word to its best suggestion (in-vocabulary
    words and words with no candidate pass through untouched).
    """

    def __init__(self, out_dir: str, max_edit: int = MAX_EDIT,
                 prefix_len: int = PREFIX_LEN,
                 index_terms: int = 200_000):
        path = _vocab_path(out_dir)
        if not os.path.exists(path):
            raise FileNotFoundError(
                f"no vocabulary at {path} — run build_vocab(out_dir) first")
        t = pq.read_table(path)
        self.terms: list[str] = t["term"].to_pylist()
        self.cf = t["cf"].to_numpy()
        self.cf_of = dict(zip(self.terms, (int(c) for c in self.cf)))
        self.max_edit = max_edit
        self.prefix_len = prefix_len
        # delete-key -> vocab indices, built over the POPULARITY HEAD
        # only (the vocab file is cf-sorted): ~29 delete keys per term
        # means a million-term index would be multi-GB of dict heap —
        # suggestion dictionaries only ever want frequent words anyway
        # (exactly the reference's popularity dictionary), so the cap
        # keeps the structure genuinely broadcast-sized while the FULL
        # vocab stays available for in-vocabulary membership checks
        self.index: dict[str, list[int]] = {}
        for i, w in enumerate(self.terms[:index_terms]):
            for d in _deletes(w, max_edit, prefix_len):
                self.index.setdefault(d, []).append(i)

    def suggest(self, term: str, k: int = 5) -> list[tuple[str, int, int]]:
        q = term.lower()
        cand: set[int] = set()
        for d in _deletes(q, self.max_edit, self.prefix_len):
            cand.update(self.index.get(d, ()))
        scored = []
        for i in cand:
            w = self.terms[i]
            dist = _osa_distance(q, w, self.max_edit)
            if dist <= self.max_edit:
                scored.append((w, dist, int(self.cf[i])))
        scored.sort(key=lambda x: (x[1], -x[2], x[0]))
        return scored[:k]

    def correct_query(self, query: str) -> str:
        from ..functions.tokenizer import tokenize

        words, _, _ = tokenize(query)
        out = []
        for w in words:
            lw = w.lower()
            if lw in self.cf_of:
                out.append(lw)
                continue
            s = self.suggest(lw, k=1)
            out.append(s[0][0] if s else lw)
        return " ".join(out)
