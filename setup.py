"""Setuptools shim.

The project metadata (name, version, ``src/`` package discovery) lives in
pyproject.toml's ``[project]`` and ``[tool.setuptools]`` tables, which
``setup()`` reads; this file exists so that ``pip install -e .`` works in
offline environments without the ``wheel`` package (pip falls back to the
legacy ``setup.py develop`` code path).
"""

from setuptools import setup

setup()
