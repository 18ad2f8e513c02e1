"""The package reports the version its build metadata declares."""

import re
from pathlib import Path

import flyqsim

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_version_matches_pyproject():
    # a regex, not tomllib: Python 3.10 has no tomllib
    project = re.search(r"^\[project\]\n(.*?)(?=^\[|\Z)",
                        PYPROJECT.read_text(encoding="utf-8"),
                        re.DOTALL | re.MULTILINE)
    assert project, "pyproject.toml has no [project] table"
    version = re.search(r'^version\s*=\s*"([^"]+)"\s*$', project.group(1),
                        re.MULTILINE)
    assert version, "[project] has no version"
    assert flyqsim.__version__ == version.group(1)
