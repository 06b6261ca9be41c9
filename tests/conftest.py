import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(scope="session")
def ray_session():
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=4, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def sf_smoke():
    return "/root/testdata/sf0.001"


@pytest.fixture(scope="session")
def sf_correct():
    return "/root/testdata/sf0.01"


@pytest.fixture(scope="session")
def assert_cpus_released(ray_session):
    """A check that every session CPU is free again within
    ``FREE_CPU_WAIT_S`` (the time a build waits for CPUs still being
    released).  It collects no garbage: an actor that only a collection
    would free is a leak, and must fail it."""
    import time

    import ray

    from open_source_search_engine_ray.stages.spill import FREE_CPU_WAIT_S

    def check(after: str) -> None:
        total = ray.cluster_resources().get("CPU", 0.0)
        deadline = time.monotonic() + FREE_CPU_WAIT_S
        free = ray.available_resources().get("CPU", 0.0)
        while free < total and time.monotonic() < deadline:
            time.sleep(0.1)
            free = ray.available_resources().get("CPU", 0.0)
        assert free >= total, (f"{total - free:g} of {total:g} CPUs still "
                               f"held after {after}")
    return check


TEST_INDEX = "/tmp/osse_test_idx"


@pytest.fixture(scope="session")
def test_index(ray_session):
    """The default build of 300 synthetic conversations at
    ``TEST_INDEX``, built fresh once per session whichever module asks
    first (an index a previous run left there may be of another format
    or layout) → its meta."""
    import shutil

    from open_source_search_engine_ray.index.build import build_index
    from open_source_search_engine_ray.sources.transcripts import (
        transcripts_dataset)

    shutil.rmtree(TEST_INDEX, ignore_errors=True)
    return build_index(lambda: transcripts_dataset(300), TEST_INDEX,
                       input_token="synthetic:n=300")
