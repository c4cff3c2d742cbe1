"""Setuptools shim: all of the project's packaging metadata lives here.

Without the ``wheel`` package, PEP-660 editable installs (``pip install
-e .``) cannot build; ``python setup.py develop`` installs the same
editable egg-link without it.  The version is read from
``src/repro/__init__.py`` so it is written down once.
"""

import pathlib
import re

from setuptools import find_packages, setup

INIT = pathlib.Path(__file__).parent / "src" / "repro" / "__init__.py"

setup(
    name="repro",
    version=re.search(
        r'^__version__ = "([^"]+)"', INIT.read_text(), re.MULTILINE
    ).group(1),
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy", "scipy"],
)
