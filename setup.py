"""Setuptools packaging for the PageRank Pipeline Benchmark reproduction.

This environment is offline and has no ``wheel`` package, so PEP 517/660
builds (which need to produce a wheel) cannot run.  Keeping all metadata
in setup.py and omitting ``[build-system]``/pyproject lets
``pip install -e .`` use the legacy ``setup.py develop`` path, which
works without wheel.

Only numpy and scipy are requirements (the ``scipy`` backend is the
default and the contract/validation layer uses ``scipy.sparse``); the
dataframe and graphblas backends run on :mod:`repro.frame` and
:mod:`repro.grb`, which ship here.  The one extra, ``test``, is the
tier-1 test toolchain (pytest + hypothesis).
"""

from setuptools import find_packages, setup

EXTRAS = {"test": ["pytest>=7.0", "hypothesis>=6.0"]}

setup(
    name="repro-pagerank-pipeline",
    version="0.2.0",
    description=(
        "Reproduction of the PageRank Pipeline Benchmark (Dreher et al., "
        "IPDPS Workshops 2016): four kernels, five backends, serial/"
        "streaming/parallel executors, and the paper's tables and figures"
    ),
    long_description=(
        "A holistic big-data system benchmark: generate a Kronecker graph "
        "(K0), sort it (K1), build the filtered adjacency matrix (K2), and "
        "run fixed-iteration PageRank (K3), reporting edges/second per "
        "kernel.  Includes a stage-graph execution layer with serial, "
        "out-of-core streaming, and shard-parallel strategies plus a "
        "content-addressed artifact cache for sweep reuse."
    ),
    long_description_content_type="text/plain",
    author="repro contributors",
    license="MIT",
    packages=find_packages("src"),
    package_dir={"": "src"},
    python_requires=">=3.9",
    install_requires=["numpy>=1.21", "scipy>=1.7"],
    extras_require=EXTRAS,
    entry_points={
        "console_scripts": [
            "repro-pipeline = repro.cli.main:main",
        ]
    },
    classifiers=[
        "Development Status :: 4 - Beta",
        "Intended Audience :: Science/Research",
        "License :: OSI Approved :: MIT License",
        "Programming Language :: Python :: 3",
        "Topic :: System :: Benchmark",
    ],
)
