import pytest
from hypothesis import settings

# derandomized and without an example database, so the suite is
# reproducible; hypothesis still writes .hypothesis/constants/ under the
# working directory, which .gitignore covers
settings.register_profile(
    "homoclinic-lab", deadline=None, derandomize=True, database=None)
settings.load_profile("homoclinic-lab")


@pytest.fixture
def inline_pool(monkeypatch):
    """Replace the process pool of montecarlo's fan-out by one that runs
    each chunk inline, so no worker process starts; returns the list of
    max_workers values it was asked for."""
    from homoclinic_lab import montecarlo

    asked = []

    class InlinePool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            done = fn(*args)

            class Future:
                def result(self):
                    return done
            return Future()

    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", InlinePool)
    return asked


@pytest.fixture
def empty_store():
    """Empty montecarlo's kept cone levels (_KEPT) before the test and again
    after it, so the test builds every level it reads and leaves no levels
    kept under a patched budget; returns the memo."""
    from homoclinic_lab import montecarlo

    montecarlo._KEPT.clear()
    yield montecarlo._KEPT
    montecarlo._KEPT.clear()
