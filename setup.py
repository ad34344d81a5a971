"""The package description: ``pip install -e .`` installs ``repro`` from ``src/``.

There is no ``pyproject.toml``; this file is the whole description.  The
version is read out of ``src/repro/__init__.py`` by regex, not by importing
the package, so describing it needs nothing importable.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).parent / "src" / "repro" / "__init__.py"

setup(
    name="repro",
    version=re.search(r'^__version__ = "([^"]+)"', _INIT.read_text(encoding="utf-8"), re.M)[1],
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
)
