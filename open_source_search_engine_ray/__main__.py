"""CLI driver — the ``ray job submit`` entrypoint (north rule).

    python -m open_source_search_engine_ray build --input DIR --out DIR
        [--resume] [--partitions P] [--salts S]
    python -m open_source_search_engine_ray query --index DIR --q "..." [-k K]
    python -m open_source_search_engine_ray add --index DIR --input DIR
    python -m open_source_search_engine_ray compact --index DIR
    python -m open_source_search_engine_ray bench-queries --index DIR

On a cluster: ``ray job submit --working-dir . -- python -m
open_source_search_engine_ray build ...`` (the driver owns ray.init; in a
job context Ray is already initialised and the guard below is a no-op).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time


def _ensure_ray():
    import ray

    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False,
                 logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="open_source_search_engine_ray")
    sub = ap.add_subparsers(dest="cmd", required=True)

    b = sub.add_parser("build")
    b.add_argument("--input", required=True,
                   help="parquet file/dir of transcripts")
    b.add_argument("--out", required=True)
    b.add_argument("--resume", action="store_true")
    b.add_argument("--partitions", type=int, default=32)
    b.add_argument("--salts", type=int, default=8)

    q = sub.add_parser("query")
    q.add_argument("--index", required=True)
    q.add_argument("--q", required=True)
    q.add_argument("-k", type=int, default=10)
    q.add_argument("--snippets", action="store_true")
    q.add_argument("--timeout-ms", type=float, default=None,
                   help="query deadline; expired fetches -> partial")
    q.add_argument("--parallel", action="store_true",
                   help="exact docId-range-split evaluation across Ray "
                        "tasks (Msg39 range-split analogue)")
    q.add_argument("--qlang", default=None,
                   help="query language: weights non-matching docs by "
                        "--lang-weight via the per-doc language prior")
    q.add_argument("--lang-weight", type=float, default=None,
                   help="score multiplier of docs not in the --qlang "
                        "language (needs --qlang)")
    q.add_argument("--max-list-bytes", type=int, default=None,
                   help="per-term decoded-list cap (~30MB reference cap)")
    q.add_argument("--facets", default=None, metavar="ATTR",
                   help="facet histogram of ATTR ('lang') over the "
                        "exact matching set (gbfacetstr analogue)")

    sg = sub.add_parser("suggest",
                        help="spell suggestions from the corpus vocab")
    sg.add_argument("--index", required=True)
    sg.add_argument("--q", required=True)
    sg.add_argument("-k", type=int, default=5)

    a = sub.add_parser("add",
                       help="add documents in a new generation; a document "
                            "already in the index is replaced")
    a.add_argument("--index", required=True)
    a.add_argument("--input", required=True)

    c = sub.add_parser("compact")
    c.add_argument("--index", required=True)

    dq = sub.add_parser("delete-query",
                        help="tombstone every doc matching a query "
                             "(PageReindex.cpp delete path)")
    dq.add_argument("--index", required=True)
    dq.add_argument("--q", required=True)

    bq = sub.add_parser("bench-queries")
    bq.add_argument("--index", required=True)

    args = ap.parse_args(argv)
    if args.cmd == "query":
        # one request from every flag, refused here if the pipeline
        # would refuse it — before Ray starts
        from .query.engine import SearchRequest

        if args.snippets and args.facets is not None:
            ap.error("query modes are mutually exclusive, got: "
                     "--snippets, --facets")
        opts = dict(timeout_ms=args.timeout_ms,
                    max_list_bytes=args.max_list_bytes,
                    n_ranges="auto" if args.parallel else None,
                    qlang=args.qlang, lang_weight=args.lang_weight)
        if args.facets is not None:
            opts.update(facet=args.facets, k_facets=args.k)
        req = SearchRequest(args.q, args.k, **opts)
        try:
            req.validate()
        except ValueError as ex:
            ap.error(str(ex))
    _ensure_ray()
    import ray.data

    if args.cmd == "build":
        from .config import IndexConfig
        from .index.build import build_index

        cfg = IndexConfig(num_partitions=args.partitions,
                          num_salts=args.salts)
        meta = build_index(lambda: ray.data.read_parquet(args.input),
                           args.out, cfg, input_token=f"cli:{args.input}",
                           resume=args.resume)
        print(json.dumps({k: meta[k] for k in
                          ("n_docs", "n_terms", "n_postings", "avgdl",
                           "build_wall_sec", "phase_sec")}))
    elif args.cmd == "query":
        from .query.engine import IndexSearcher
        from .query.snippets import search_with_snippets

        if args.snippets:
            print(search_with_snippets(args.index, args.q, args.k, **opts)
                  .to_pandas().to_string())
        else:
            se = IndexSearcher(args.index)
            t0 = time.time()
            res = se.run(req)
            dt = time.time() - t0
            if res.facets is not None:
                for v, c in zip(*res.facets):
                    print(f"{str(v):20s}  {int(c):10d}")
                print(f"({res.total} matching docs)")
                return 0
            for r, (d, s) in enumerate(zip(res.doc_ids, res.scores), 1):
                print(f"{r:3d}  doc={int(d):20d}  score={float(s):.6f}")
            tag = " PARTIAL" if res.partial else ""
            print(f"({len(res.doc_ids)} hits in {dt * 1000:.1f} ms{tag})")
    elif args.cmd == "suggest":
        from .query.spell import SpellSuggester, ensure_vocab

        ensure_vocab(args.index)
        sp = SpellSuggester(args.index)
        for w in args.q.split():
            for s, d, cf in sp.suggest(w, k=args.k):
                print(f"{w} -> {s}  (distance {d}, cf {cf})")
        print("corrected:", sp.correct_query(args.q))
    elif args.cmd == "add":
        from .index.merge import add_documents

        meta = add_documents(args.index,
                             lambda: ray.data.read_parquet(args.input),
                             input_token=f"cli-add:{args.input}")
        print(json.dumps({"added_docs": meta["n_docs"]}))
    elif args.cmd == "compact":
        from .index.merge import compact

        meta = compact(args.index)
        print(json.dumps({"n_docs": meta["n_docs"],
                          "n_postings": meta["n_postings"]}))
    elif args.cmd == "delete-query":
        from .index.merge import delete_by_query

        n = delete_by_query(args.index, args.q)
        print(json.dumps({"deleted_docs": int(n)}))
    elif args.cmd == "bench-queries":
        from .query.engine import IndexSearcher
        from .sources.queryset import query_set

        se = IndexSearcher(args.index)
        lat = {}
        for qid, qq, k in query_set():
            t0 = time.time()
            se.search(qq, k)
            lat[qid] = round((time.time() - t0) * 1000, 2)
        print(json.dumps(lat))
    import ray

    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
