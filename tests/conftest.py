"""Shared fixtures for the unit suite."""

import os

import pytest


@pytest.fixture(autouse=True, scope="session")
def _scratch_working_directory(tmp_path_factory):
    """Run the suite from a scratch directory.

    Audits write flight-recorder bundles (and campaigns their JSONL)
    relative to the working directory; this keeps them out of the
    checkout.  Relative ``PYTHONPATH`` entries are made absolute first,
    so subprocesses (the example scripts) still import this tree.
    """
    with pytest.MonkeyPatch.context() as patch:
        pythonpath = os.environ.get("PYTHONPATH")
        if pythonpath:
            entries = [os.path.abspath(p) for p in pythonpath.split(os.pathsep) if p]
            patch.setenv("PYTHONPATH", os.pathsep.join(entries))
        patch.chdir(tmp_path_factory.mktemp("cwd"))
        yield
