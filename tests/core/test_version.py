"""The package version has one source: ``repro.__version__``.

``pyproject.toml`` declares the version ``dynamic`` and points setuptools
at ``repro.__version__``, so installed metadata, BENCH records, and
manifests cannot disagree.  Parsed by hand: ``tomllib`` is 3.11+.
"""

import re
from pathlib import Path

import repro

PYPROJECT = Path(__file__).resolve().parents[2] / "pyproject.toml"


def section(name: str) -> str:
    """The body of the ``[name]`` table in ``pyproject.toml``."""
    text = PYPROJECT.read_text()
    match = re.search(
        rf"^\[{re.escape(name)}\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S
    )
    assert match, f"pyproject.toml has no [{name}] table"
    return match.group(1)


def test_version_is_dynamic_not_static():
    project = section("project")
    assert not re.search(r"^version\s*=", project, re.M), (
        "pyproject.toml pins a static version; it must stay dynamic"
    )
    dynamic = re.search(r"^dynamic\s*=\s*\[(.*?)\]", project, re.M | re.S)
    assert dynamic and '"version"' in dynamic.group(1)


def test_version_is_read_from_the_package():
    dynamic = section("tool.setuptools.dynamic")
    assert re.search(
        r'^version\s*=\s*\{\s*attr\s*=\s*"repro\.__version__"\s*\}',
        dynamic, re.M,
    )
    assert re.fullmatch(r"\d+\.\d+\.\d+", repro.__version__)
