import shutil
import tempfile


def pytest_configure(config):
    """Keep hypothesis's caches out of the working tree.

    They go under pytest's cache directory, or into a temporary directory,
    removed at exit, when the cache plugin is off (``-p no:cacheprovider``).
    """
    try:
        from hypothesis.configuration import set_hypothesis_home_dir
    except ImportError:
        return
    if hasattr(config, "cache"):
        set_hypothesis_home_dir(config.cache.mkdir("hypothesis"))
    else:
        home = tempfile.mkdtemp(prefix="hypothesis-")
        config.add_cleanup(lambda: shutil.rmtree(home, ignore_errors=True))
        set_hypothesis_home_dir(home)
