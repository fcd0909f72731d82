"""Package setup: a plain pure-Python install (metadata in pyproject.toml)."""

from setuptools import setup

setup(
    entry_points={
        "console_scripts": ["repro=repro.__main__:main"],
    },
)
