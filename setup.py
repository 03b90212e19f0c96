"""Setuptools entry point.

Carries the package metadata directly (there is no pyproject.toml in this
offline environment); the shim form also lets the package install in
editable mode where the ``wheel`` package (needed by the PEP 660 editable
build hooks of older setuptools releases) is unavailable.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy", "scipy"],
)
