"""Setuptools shim.

The metadata lives in ``pyproject.toml`` (PEP 621, ``src/`` layout,
version read from ``repro.__version__``).  This file exists so that
environments without the ``wheel`` package can still install the
package in development mode with ``python setup.py develop``, which
needs no wheel build.
"""

from setuptools import setup

setup()
