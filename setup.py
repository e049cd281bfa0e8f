"""Packaging metadata for the ``repro`` package.

Everything is declared here, in setuptools' ``setup()`` form, so that the
legacy install paths work offline where the ``wheel`` package (and with it
PEP 517 builds) is unavailable::

    python setup.py egg_info        # lists the packages and the entry point
    python setup.py develop         # editable install: puts `repro-iokast` on PATH

The version is read from ``src/repro/__init__.py`` so it has one source.
"""

import os
import re

from setuptools import find_packages, setup

HERE = os.path.dirname(os.path.abspath(__file__))


def read_version() -> str:
    with open(os.path.join(HERE, "src", "repro", "__init__.py"), encoding="utf-8") as handle:
        match = re.search(r'^__version__ = "([^"]+)"', handle.read(), re.MULTILINE)
    if match is None:
        raise RuntimeError("src/repro/__init__.py defines no __version__")
    return match.group(1)


setup(
    name="repro-iokast",
    version=read_version(),
    description=(
        "Weighted-string representation and Kast Spectrum Kernel for comparing "
        "I/O access patterns (Torres et al., PaCT 2017)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
    entry_points={"console_scripts": ["repro-iokast = repro.cli:main"]},
)
