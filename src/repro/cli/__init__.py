"""Command-line interface (``repro-pipeline``).

Subcommands::

    repro-pipeline run       # one pipeline run, per-kernel report
    repro-pipeline sweep     # (backend x scale) measurement grid
    repro-pipeline figures   # paper figures 4-7, or the K2+K3 ranks table
    repro-pipeline tables    # regenerate paper tables I / II
    repro-pipeline validate  # eigenvector cross-check of Kernel 3
    repro-pipeline info      # list backends / generators / experiments
"""

from __future__ import annotations

from repro.cli.main import build_parser, main

__all__ = ["build_parser", "main"]
