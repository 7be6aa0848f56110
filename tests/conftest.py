import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import settings

import nlatlas as nl

# the same examples on every run, no example database and no deadline, so a
# busy host cannot fail a property test
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")
# hypothesis also caches the constants it reads from the modules under test,
# database or not; keep that cache out of the working tree
os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY",
                      os.path.join(tempfile.gettempdir(), "nlatlas-hypothesis"))


@pytest.fixture(scope="session")
def dataset():
    return nl.load_dataset()


@pytest.fixture(scope="session")
def default_atlas():
    return nl.enumerate_atlas()


@pytest.fixture(scope="session")
def fresh_env():
    """Environment of a fresh interpreter that imports nlatlas from this
    source tree and reads the bundled dataset."""
    env = dict(os.environ, PYTHONPATH=str(Path(nl.__file__).resolve().parent.parent))
    env.pop("NLATLAS_DATASET", None)
    return env
