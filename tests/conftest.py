import pytest

from recorded_outputs import run_commands


@pytest.fixture(scope="session")
def default_outputs(tmp_path_factory):
    """The directory the six default commands wrote, run once per session."""
    out = tmp_path_factory.mktemp("default-outputs")
    run_commands(out)
    return out
