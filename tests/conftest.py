"""Shared fixtures; also puts this directory on sys.path for `import oracles`."""

import contextlib
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

TESTS_DIR = Path(__file__).resolve().parent
REPO_ROOT = TESTS_DIR.parent

if str(TESTS_DIR) not in sys.path:
    sys.path.insert(0, str(TESTS_DIR))

# hypothesis's pytest plugin imports this module to print a failing example's
# patch and catches only ImportError; under -W error::DeprecationWarning,
# libcst's import of mypy_extensions.TypedDict raises instead and ends the
# session (INTERNALERROR).  Loaded once here, with only that warning ignored.
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401


@pytest.fixture(scope="session")
def demo_dir() -> Path:
    """Bundled ten-song fixture; regenerated from its script when absent."""
    path = REPO_ROOT / "data" / "demo"
    if not (path / "manifest.json").is_file():
        subprocess.run(
            [sys.executable, str(REPO_ROOT / "scripts" / "make_demo_dataset.py")],
            check=True,
            cwd=REPO_ROOT,
        )
    return path


def full_dataset_manifest() -> Path | None:
    """Manifest of the complete 30-song dataset, when the user supplies one.

    Not bundled; looked up under data/full or via RESURGE_DATASET.
    """
    import os

    env = os.environ.get("RESURGE_DATASET")
    candidates = [Path(env)] if env else []
    candidates.append(REPO_ROOT / "data" / "full" / "manifest.json")
    for candidate in candidates:
        if candidate.is_file():
            return candidate
    return None
