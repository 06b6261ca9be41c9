"""CLI surface: build → budgeted query → suggest, via subprocesses
(each owns its own Ray session; the shared pytest session is untouched)."""

import subprocess
import sys

import pytest


@pytest.fixture(scope="module")
def cli_corpus(ray_session, tmp_path_factory):
    from open_source_search_engine_ray.sources.transcripts import (
        transcripts_parquet)

    factory = transcripts_parquet(200)
    del factory
    return "/tmp/osse_transcripts/n200"


def _run(*args):
    return subprocess.run(
        [sys.executable, "-m", "open_source_search_engine_ray", *args],
        capture_output=True, text=True, cwd="/root/repo", timeout=300)


def test_cli_build_query_suggest(cli_corpus, tmp_path):
    idx = str(tmp_path / "idx")
    r = _run("build", "--input", cli_corpus, "--out", idx)
    assert r.returncode == 0, r.stderr[-2000:]
    assert '"n_docs": 200' in r.stdout

    r = _run("query", "--index", idx, "--q", "w0042",
             "--max-list-bytes", "2048")
    assert r.returncode == 0, r.stderr[-2000:]
    assert "hits in" in r.stdout

    r = _run("suggest", "--index", idx, "--q", "w042 teh", "-k", "2")
    assert r.returncode == 0, r.stderr[-2000:]
    assert "w042 -> w0042" in r.stdout
    assert "corrected: w0042 the" in r.stdout

    # the language-weighted path returns a full page
    r = _run("query", "--index", idx, "--q", "w0042", "--qlang", "en")
    assert r.returncode == 0, r.stderr[-2000:]
    assert "hits in" in r.stdout

    # facet histogram over the exact matching set (gbfacetstr analogue)
    r = _run("query", "--index", idx, "--q", "w0042", "--facets", "lang")
    assert r.returncode == 0, r.stderr[-2000:]
    assert "matching docs)" in r.stdout and "en" in r.stdout

    # the flags build one request: options that combine do, and the
    # output modes (snippets / facets) and refused pairs fail loudly
    # instead of silently picking one
    r = _run("query", "--index", idx, "--q", "w0042", "--qlang", "en",
             "--timeout-ms", "1000")
    assert r.returncode == 0, r.stderr[-2000:]
    assert "hits in" in r.stdout
    r = _run("query", "--index", idx, "--q", "w0042", "--snippets",
             "--facets", "lang")
    assert r.returncode != 0
    assert "mutually exclusive" in r.stderr
    r = _run("query", "--index", idx, "--q", "w0042", "--facets", "lang",
             "--qlang", "en")
    assert r.returncode != 0
    assert "cannot be combined" in r.stderr
    r = _run("query", "--index", idx, "--q", "w0042",
             "--facets", "language")
    assert r.returncode != 0 and "unknown facet" in r.stderr

    # delete-by-query tombstones every match; the query then returns none
    r = _run("delete-query", "--index", idx, "--q", "w0042")
    assert r.returncode == 0, r.stderr[-2000:]
    assert '"deleted_docs"' in r.stdout
    r = _run("query", "--index", idx, "--q", "w0042")
    assert r.returncode == 0, r.stderr[-2000:]
    assert "(0 hits in" in r.stdout


def test_cli_lang_weight_needs_qlang():
    """--lang-weight only weights against a --qlang: alone it is refused
    (exit 2) before any index is opened or Ray started."""
    from open_source_search_engine_ray.__main__ import main

    with pytest.raises(SystemExit) as ex:
        main(["query", "--index", "/nonexistent", "--q", "w0042",
              "--lang-weight", "0.5"])
    assert ex.value.code == 2
