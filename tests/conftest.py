"""Session set-up shared by every test module."""

import gc


def pytest_collection_finish(session):
    # Each run after a finished one takes a full collection
    # (``StreamSystem.run``).  Freezing what collection imported keeps
    # those collections from re-walking pytest's and the test modules'
    # heap every time.
    gc.collect()
    gc.freeze()
