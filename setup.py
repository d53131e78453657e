"""Packaging for the FS-NewTOP reproduction.

Plain ``setup.py`` metadata (no build-system requirements beyond
setuptools) so that ``pip install -e .`` works in offline environments
lacking the ``wheel`` package -- pip then falls back to
``setup.py develop``.
"""

import pathlib

from setuptools import find_packages, setup

HERE = pathlib.Path(__file__).parent

version = {}
exec((HERE / "src" / "repro" / "_version.py").read_text(), version)

readme = HERE / "README.md"
long_description = readme.read_text() if readme.exists() else ""

setup(
    name="repro-fsnewtop",
    version=version["__version__"],
    description=(
        "Reproduction of 'From Crash Tolerance to Authenticated Byzantine "
        "Tolerance' (DSN 2003): FS-NewTOP vs NewTOP, with a declarative "
        "scenario registry and parallel campaign runner"
    ),
    long_description=long_description,
    long_description_content_type="text/markdown",
    author="paper-repo-growth",
    license="MIT",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    entry_points={
        "console_scripts": [
            "repro=repro.cli:main",
        ],
    },
    extras_require={
        # The C-backed ed25519 signature provider (repro.crypto.ed25519);
        # everything degrades gracefully to the pure-python schemes when
        # this is absent.  See docs/CRYPTO.md.
        "fastcrypto": [
            "cryptography",
        ],
    },
    classifiers=[
        "Development Status :: 4 - Beta",
        "Intended Audience :: Science/Research",
        "License :: OSI Approved :: MIT License",
        "Programming Language :: Python :: 3",
        "Programming Language :: Python :: 3.10",
        "Programming Language :: Python :: 3.11",
        "Programming Language :: Python :: 3.12",
        "Topic :: System :: Distributed Computing",
    ],
)
