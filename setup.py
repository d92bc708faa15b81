"""Package metadata for ``repro`` (XInsight reproduction).

There is no ``pyproject.toml``: this file is the one place the metadata
lives.  ``pip install -e . --no-build-isolation`` takes the legacy
``setup.py develop`` route, which needs no ``wheel`` package.
``install_requires`` names exactly what ``import repro`` needs; the test
extras (pytest, hypothesis, pytest-benchmark) are installed by CI.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

INIT = Path(__file__).parent / "src" / "repro" / "__init__.py"
VERSION = re.search(r'__version__ = "([^"]+)"', INIT.read_text()).group(1)

setup(
    name="repro",
    version=VERSION,
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy", "scipy"],
)
