"""Legacy setup shim.

The build configuration lives in pyproject.toml.  This file exists so that
environments without the `wheel` package (where PEP 660 editable installs
fail) can still do `python setup.py develop`.  The C extension is not built
here: `repro.native` compiles it with the host C compiler on first use (see
docs/PERFORMANCE.md, "Native tier").
"""
from setuptools import setup

setup()
