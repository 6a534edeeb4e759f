"""Legacy setup shim.

Kept so `python setup.py develop` installs the package editable on
offline environments lacking the `wheel` package (pip's editable and
wheel builds both require it); all metadata lives in pyproject.toml.
"""

from setuptools import setup

setup()
