"""Seeded generators for the benchmark's corpora and query streams.

Everything here is a pure function of ``(seed, sizes)``: the same seed gives
a byte-identical corpus and query stream, another seed changes both.  The
search engine under test only ever sees what these functions produce:
Parquet files in the transcripts ``input_hint`` schema and query strings.

Where the values come from (README.md has the full table):

- the corpus follows the repo's fixture model (FIXTURES.md §1,
  ``sources/transcripts.py``): its vocabulary, its Zipf law for words, its
  stopword list and injection rate, words per turn, role mix, tools,
  edge-case sentences and role marker terms are imported from there;
- one departure: the fixture picks stopwords uniformly, here they follow
  the fixture's own word law (in its list order), so stopword lists
  differ in length as they do in natural text;
- queries are the reference query set (FIXTURES.md §2,
  ``sources/queryset.py``) with fresh words: every ``w####`` word is
  replaced by a word from the same decade of Zipf rank, and every query of
  the set is used equally often;
- each conversation carries one unique id token (``uid…``) in its first
  turn, which lets the ingest workload check that an acknowledged add is
  findable and a deleted conversation is gone.
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa

from open_source_search_engine_ray.sources.queryset import query_set
from open_source_search_engine_ray.sources.transcripts import (
    _ZIPF_CUM, EDGE_SENTENCES, EPOCH_US, ROLE_MARKERS, STOP_INJECT, TOOLS,
    TRANSCRIPTS_SCHEMA, VOCAB_SIZE, ZIPF_S)

STOP_P = 0.3                       # transcripts._turn_text: stopword rate
MAX_TURNS = 12                     # transcripts.n_turns_for_conv: 1..12
ROLES = np.array(["user", "assistant", "tool", "system"])
ROLE_CUM = np.cumsum([0.40, 0.40, 0.15, 0.05])   # transcripts._role_for
TOOL_NAMES = np.array(TOOLS)
REFERENCE = [q for _, q, _ in query_set()]
_WORD = re.compile(r"\bw(\d{4})\b")

# the stream tags are folded into the seed so that the corpus, the queries
# and the ingest schedule of one seed are independent streams
_CORPUS, _QUERIES, _SCHEDULE = 1, 2, 3


def _zipf_cdf(n: int, s: float) -> np.ndarray:
    p = 1.0 / np.power(np.arange(1, n + 1, dtype=np.float64), s)
    return np.cumsum(p / p.sum())


def _draw(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draw; the clip guards a last cdf entry that rounds
    below 1.0."""
    return np.minimum(np.searchsorted(cdf, u, side="right"), len(cdf) - 1)


_STOP_CDF = _zipf_cdf(len(STOP_INJECT), ZIPF_S)


def word(rank: int) -> str:
    """The content word of Zipf rank ``rank`` (0 = most frequent)."""
    return f"w{rank:04d}"


def rng_for(seed: int, stream: int, part: int = 0) -> np.random.Generator:
    return np.random.default_rng([int(seed), stream, int(part)])


def conv_id(seed: int, i: int) -> str:
    return f"s{seed}-c{i:07d}"


def uid_token(seed: int, i: int) -> str:
    return f"uid{seed}x{i}"


def turn_counts(first: int, n_conv: int) -> np.ndarray:
    """Turns per conversation: a fixed pattern cycling through
    ``1..MAX_TURNS``, the same for every seed, so that corpora of one size
    have one turn count whatever the seed."""
    return 1 + (np.arange(first, first + n_conv) * 7) % MAX_TURNS


def corpus(seed: int, first: int, n_conv: int) -> pa.Table:
    """Conversations ``first .. first + n_conv - 1`` of the seed's corpus
    (see :func:`turn_counts` for their lengths).  Each block of
    conversations is generated from its own sub-stream."""
    rng = rng_for(seed, _CORPUS, first)
    n_turns = turn_counts(first, n_conv)
    total = int(n_turns.sum())
    conv_of_turn = np.repeat(np.arange(n_conv), n_turns)
    conv = first + conv_of_turn
    starts = np.cumsum(n_turns) - n_turns
    turn_idx = np.arange(total) - np.repeat(starts, n_turns)
    roles = ROLES[_draw(ROLE_CUM, rng.random(total))]
    tools = np.where(roles == "tool",
                     TOOL_NAMES[rng.integers(0, len(TOOLS), total)], None)
    n_words = rng.integers(4, 24, total)
    words_all = _draw(_ZIPF_CUM, rng.random(int(n_words.sum())))
    stop_hit = rng.random(len(words_all)) < STOP_P
    stop_pick = _draw(_STOP_CDF, rng.random(len(words_all)))
    # the fixture's schedule for edge-case sentences and role markers
    edge = (conv * 31 + turn_idx) % 7 == 0
    mark = (conv + turn_idx) % 13 == 0

    texts: list[str] = []
    pos = 0
    for t in range(total):
        out: list[str] = []
        for j in range(pos, pos + int(n_words[t])):
            out.append(word(int(words_all[j])))
            if stop_hit[j]:
                out.append(STOP_INJECT[int(stop_pick[j])])
        pos += int(n_words[t])
        parts = [" ".join(out) + "."]
        if edge[t]:
            parts.append(EDGE_SENTENCES[int(conv[t] + turn_idx[t])
                                        % len(EDGE_SENTENCES)] + ".")
        if mark[t]:
            parts.append(ROLE_MARKERS[str(roles[t])] + ".")
        if turn_idx[t] == 0:
            parts.append(uid_token(seed, int(conv[t])) + ".")
        texts.append(" ".join(parts))

    ts = (int(EPOCH_US) + conv.astype(np.int64) * 3_600_000_000
          + turn_idx.astype(np.int64) * 7_000_000)
    return pa.table({
        "conv_id": pa.array([conv_id(seed, int(c)) for c in conv],
                            pa.string()),
        "turn_idx": pa.array(turn_idx.astype(np.int32), pa.int32()),
        "role": pa.array(roles.tolist(), pa.string()),
        "text": pa.array(texts, pa.string()),
        "tool": pa.array(tools.tolist(), pa.string()),
        "ts": pa.array(ts, pa.timestamp("us")),
    }, schema=TRANSCRIPTS_SCHEMA)


def _fresh(rng: np.random.Generator, template: str) -> str:
    """``template`` with each ``w####`` replaced by a random word of the
    same decade of rank (w0042 → one of w0010..w0099).  Distinct words
    stay distinct and a repeated word is replaced the same way throughout,
    so phrase and negation structure stays."""
    picked: dict[str, str] = {}

    def sub(m: re.Match) -> str:
        if m.group(0) not in picked:
            rank = int(m.group(1))
            lo = 0 if rank < 10 else 10 ** (len(str(rank)) - 1)
            hi = min(VOCAB_SIZE, 10 if rank < 10 else lo * 10)
            w = word(int(rng.integers(lo, hi)))
            while w in picked.values():
                w = word(int(rng.integers(lo, hi)))
            picked[m.group(0)] = w
        return picked[m.group(0)]

    return _WORD.sub(sub, template)


def _stream(rng: np.random.Generator, n: int) -> list[str]:
    """``n`` queries: shuffled blocks holding each reference query once,
    each with fresh words."""
    out: list[str] = []
    while len(out) < n:
        out += [_fresh(rng, REFERENCE[int(i)])
                for i in rng.permutation(len(REFERENCE))]
    return out[:n]


def cold_queries(seed: int, n: int) -> list[str]:
    """A stream of fresh queries over the whole vocabulary, in the
    reference set's mix: single terms, conjunctions, quoted phrases
    (positions), negations, fielded terms, boolean trees, stopword and
    edge-case queries."""
    return _stream(rng_for(seed, _QUERIES, 1), n)


def warm_pool(seed: int, size: int) -> list[str]:
    """A fixed pool of ``size`` distinct queries: the reference set as
    written, then blocks of it in its own order with fresh words.  Queries
    without ``w####`` words (stopwords, edge cases, the out-of-vocabulary
    term) appear once.  With :func:`zipf_replay` the reference queries are
    the most popular ones for every seed."""
    rng = rng_for(seed, _QUERIES, 2)
    out = list(dict.fromkeys(REFERENCE))
    for _ in range(size):
        for t in REFERENCE:
            q = _fresh(rng, t)
            if q not in out:
                out.append(q)
        if len(out) >= size:
            return out[:size]
    raise ValueError(f"cannot draw {size} distinct pool queries")


def zipf_replay(seed: int, pool_size: int, n: int) -> np.ndarray:
    """Indices into the warm pool with Zipf(1.0) popularity."""
    u = rng_for(seed, _QUERIES, 3).random(n)
    return _draw(_zipf_cdf(pool_size, 1.0), u)


def schedule_rng(seed: int) -> np.random.Generator:
    """The ingest workload's stream for choosing which conversations die."""
    return rng_for(seed, _SCHEDULE)
