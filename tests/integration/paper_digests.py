"""The rank digest table's paper-scale rows (scales 18 and 20).

Its name does not match ``test_*.py``, so tier-1 never collects it; the
rows take about a minute.  Run it by path, as CI's "paper-scale digests"
step does::

    PYTHONPATH=src python -m pytest -q tests/integration/paper_digests.py
"""

from __future__ import annotations

import pytest

from tests.integration.test_rank_digests import (
    DIGESTS,
    TIER1_MAX_SCALE,
    check_digest,
)

_ROWS = sorted(row for row in DIGESTS if row[0] > TIER1_MAX_SCALE)


@pytest.mark.parametrize(
    "scale, path", _ROWS, ids=[f"s{scale}-{path}" for scale, path in _ROWS]
)
def test_paper_digest(scale, path):
    check_digest(scale, path)
