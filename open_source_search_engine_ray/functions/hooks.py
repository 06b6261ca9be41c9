"""User-supplied indexing hooks (the ``WantedChecker`` plugin API analogue).

The reference exposes a shared-library callout API
(``WantedCheckerApi.h``): ``check_domain`` / ``check_url`` gate a document
before fetch (``UrlBlockCheck.cpp:72-81``), ``check_single_content`` gates
it after transcode (``Msg13.cpp:1168``), each returning ``wanted``.  This
engine's inputs are transcript turns, so the analogue hooks are:

- ``check_conversation(conv_id) -> bool`` — the ``check_domain`` analogue:
  drop a whole conversation before any tokenize work (cheap key-level
  gate, memoized per actor);
- ``check_turn(conv_id, role, tool, text) -> bool`` — the
  ``check_single_content`` analogue: drop one turn after its content is
  available;
- ``transform_text(text) -> str`` — a content rewrite applied before
  tokenization (the transcode stage is the reference's interposition
  point; use for redaction/normalization UDFs).

Hooks run inside the build's Ray actors (cloudpickled to workers like any
``map_batches`` UDF) at one choke point — the input Dataset factory — so
doc stats, postings, the doc store and snippets all see the same filtered
corpus.  Because a hook is arbitrary Python, its identity can't be hashed
into the resume fingerprint from code alone; ``name@version`` is the
user's contract that the behavior changed (bump the version to invalidate
resumable build state), mirroring how the reference identifies a plugin
by its .so path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import pyarrow as pa


@dataclass(frozen=True)
class IndexHooks:
    name: str
    version: str = "1"
    check_conversation: Optional[Callable[[str], bool]] = None
    check_turn: Optional[Callable[[str, str, object, str], bool]] = None
    transform_text: Optional[Callable[[str], str]] = None

    def token(self) -> str:
        """Folded into the build fingerprint (resume invalidation key)."""
        return f"{self.name}@{self.version}"


def apply_hooks_batch(batch: pa.Table, hooks: IndexHooks,
                      conv_memo: dict | None = None) -> pa.Table:
    """Apply hooks to one transcripts batch.  ``conv_memo`` caches
    conversation-gate decisions across batches of the same actor."""
    if hooks.check_conversation is not None:
        convs = batch["conv_id"].to_pylist()
        memo = conv_memo if conv_memo is not None else {}
        keep = []
        for c in convs:
            v = memo.get(c)
            if v is None:
                v = bool(hooks.check_conversation(c))
                memo[c] = v
            keep.append(v)
        if not all(keep):
            batch = batch.filter(pa.array(keep))
    if hooks.check_turn is not None and batch.num_rows:
        keep = [bool(hooks.check_turn(c, r, tl, t or ""))
                for c, r, tl, t in zip(batch["conv_id"].to_pylist(),
                                       batch["role"].to_pylist(),
                                       batch["tool"].to_pylist(),
                                       batch["text"].to_pylist())]
        if not all(keep):
            batch = batch.filter(pa.array(keep))
    if hooks.transform_text is not None and batch.num_rows:
        new = [hooks.transform_text(t or "")
               for t in batch["text"].to_pylist()]
        batch = batch.set_column(batch.schema.get_field_index("text"),
                                 "text", pa.array(new, pa.string()))
    return batch


class HookStage:
    """map_batches callable wrapping :func:`apply_hooks_batch` with a
    per-actor conversation-decision memo."""

    def __init__(self, hooks: IndexHooks):
        self.hooks = hooks
        self.memo: dict = {}

    def __call__(self, batch: pa.Table) -> pa.Table:
        return apply_hooks_batch(batch, self.hooks, self.memo)


def hooked_factory(transcripts_ds_factory, hooks: IndexHooks | None):
    """Wrap a Dataset factory so every read of the input (the spill pass
    or the small-build probe) sees the hooked corpus."""
    if hooks is None:
        return transcripts_ds_factory

    def factory():
        return transcripts_ds_factory().map_batches(
            HookStage, fn_constructor_kwargs={"hooks": hooks},
            batch_format="pyarrow", concurrency=(1, 8))

    return factory
