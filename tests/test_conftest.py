"""The suite leaves no hypothesis cache in the directory it runs from."""
import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")


def test_properties_without_cache_plugin_write_nothing_to_cwd(tmp_path):
    target = Path(__file__).with_name("test_properties.py")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "-q", str(target)],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert not (tmp_path / ".hypothesis").exists()
