"""Run provenance: which code produced a stored result.

Every run manifest records enough to answer "could I trust / regenerate
this result?": the git commit of the working tree, the package version, the
interpreter and numpy versions, and the payload schema version.  Collection
is best-effort -- a missing git binary or a tarball checkout degrades to
``"unknown"`` rather than failing the sweep.
"""

from __future__ import annotations

import pathlib
import platform
import subprocess
from typing import Any, Dict

from .serialize import SCHEMA_VERSION

__all__ = ["collect_provenance", "git_revision"]


def git_revision() -> str:
    """``HEAD`` SHA of the repository containing this package (or "unknown").

    A ``-dirty`` suffix is appended when the working tree has uncommitted
    changes, so a manifest never silently claims a clean commit it did not
    run.
    """
    root = pathlib.Path(__file__).resolve().parent
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
        return f"{sha}-dirty" if status else sha
    except Exception:
        return "unknown"


def collect_provenance() -> Dict[str, Any]:
    """The provenance block written into every run manifest."""
    import numpy as np

    from .. import __version__

    return {
        "git_sha": git_revision(),
        "package_version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "schema_version": SCHEMA_VERSION,
    }
