"""Command-line interface (``repro-pipeline``).

Subcommands::

    repro-pipeline run       # one pipeline run, per-kernel report
    repro-pipeline report    # (backend x scale) grid -> Tables I-II,
                             # Figures 4-7, totals, optional ranks table
    repro-pipeline golden    # produce or check a golden record
    repro-pipeline cache     # ls / rm / prune the artifact cache
    repro-pipeline serve     # the HTTP job service
    repro-pipeline worker    # a remote worker agent for `serve`
    repro-pipeline info      # list backends / generators / scenarios
"""

from __future__ import annotations

from repro._util.lazy import lazy_exports

# Lazy, so ``python -m repro.cli.main`` runs main.py once, as __main__,
# instead of after this package already imported it.
__getattr__ = lazy_exports(__name__, {
    "build_parser": "repro.cli.main",
    "main": "repro.cli.main",
})

__all__ = ["build_parser", "main"]
