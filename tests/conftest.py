"""Suite-wide settings: hypothesis runs derandomized, keeps no example
database and has no deadline, so every run draws the same examples.  Its
home directory, where it caches constants read from the package source,
is a temporary directory removed when the run ends, so a run leaves no
``.hypothesis/`` directory behind."""

import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("gicbounds", derandomize=True, database=None, deadline=None)
settings.load_profile("gicbounds")


def pytest_configure(config):
    home = tempfile.TemporaryDirectory(prefix="hypothesis-")
    config.add_cleanup(home.cleanup)
    set_hypothesis_home_dir(home.name)
