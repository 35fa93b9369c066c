"""Pytest root conftest.

Ensures the in-repo sources are importable even when the package has not
been pip-installed (the benchmark harness and CI use ``pip install -e .``,
but a plain checkout should also run ``pytest`` out of the box).
"""

import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent / "src"
if str(_SRC) not in sys.path:
    try:
        import repro  # noqa: F401  (already installed)
    except ImportError:
        sys.path.insert(0, str(_SRC))


def pytest_configure(config):
    """Register the repo's custom markers (no ini file to list them in)."""
    config.addinivalue_line(
        "markers", "slow: runs an example end to end (a few seconds each)")
