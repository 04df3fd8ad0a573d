"""Setup shim for environments without PEP 660 editable-install support.

The canonical project metadata lives in ``pyproject.toml``; this file exists
so that ``pip install -e .`` (legacy path) and ``python setup.py develop``
also work on machines whose setuptools lacks the ``wheel`` package required
for PEP 660 editable wheels.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="8.0.0",
    description=(
        "Industrial-strength Information Retrieval on Databases: a reproduction of "
        "Cornacchia et al., EDBT 2017"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    install_requires=["numpy>=1.24"],
    python_requires=">=3.10",
)
