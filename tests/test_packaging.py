"""The package version has one source: ``repro.__version__``.

It keys the result cache, checkpoints and the journal, so the installed
metadata must not be able to disagree with it.  ``pyproject.toml`` is
read as text (Python 3.10 has no ``tomllib``).
"""

import pathlib
import re

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"


def _table(text: str, name: str) -> str:
    """The body of one ``[name]`` table of a TOML document."""
    match = re.search(
        rf"^\[{re.escape(name)}\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S
    )
    assert match is not None, f"[{name}] missing from pyproject.toml"
    return match.group(1)


def test_pyproject_version_is_dynamic_from_package():
    text = PYPROJECT.read_text(encoding="utf-8")
    project = _table(text, "project")
    assert re.search(r'^dynamic\s*=\s*\[[^\]]*"version"', project, re.M)
    assert not re.search(r"^version\s*=", project, re.M)
    dynamic = _table(text, "tool.setuptools.dynamic")
    assert re.search(
        r'^version\s*=\s*\{\s*attr\s*=\s*"repro\.__version__"\s*\}', dynamic, re.M
    )

