"""Repo-wide test fixtures.

Every test gets its own throwaway ``REPRO_CACHE_DIR``, so the suite
never reads from — or litters — the user's ``~/.cache/repro``, and no
test replays an entry (a stored report, say) that another test wrote:
which code path a test runs does not depend on test order.  Module- and
session-scoped fixtures see one process-wide throwaway store.  The
in-memory LRUs are shared by the whole process.
"""

import os

import pytest


@pytest.fixture(scope="session", autouse=True)
def _process_artifact_store(tmp_path_factory):
    os.environ["REPRO_CACHE_DIR"] = \
        str(tmp_path_factory.mktemp("repro-store"))
    from repro.core.store import reset_store
    reset_store()
    yield


@pytest.fixture(autouse=True)
def _isolated_artifact_store(_process_artifact_store, tmp_path_factory):
    from repro.core.store import reset_store
    process_store = os.environ["REPRO_CACHE_DIR"]
    os.environ["REPRO_CACHE_DIR"] = \
        str(tmp_path_factory.mktemp("repro-store"))
    reset_store()
    yield
    os.environ["REPRO_CACHE_DIR"] = process_store
    reset_store()


@pytest.fixture
def fresh_store(tmp_path):
    """A brand-new, empty store private to one test (and the default
    store for its duration).  The in-memory LRUs are emptied too, so
    the test observes every disk consultation."""
    from repro.cfront.cache import clear_all_caches
    from repro.core.session import reset_session
    from repro.core.store import reset_store
    old = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(tmp_path / "store")
    clear_all_caches()
    reset_session()
    store = reset_store()
    yield store
    if old is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = old
    clear_all_caches()
    reset_session()
    reset_store()
