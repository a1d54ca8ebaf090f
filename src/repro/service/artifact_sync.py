"""Cross-host artifact-cache sync for the distributed worker plane.

Remote workers run with *per-host* cache roots; what makes those roots
interchangeable is content addressing — a K0/K1 entry's key is the
SHA-256 of the producing config fields, identical on every host.  This
module is the client half of the sync protocol the service's HTTP
front end exposes::

    GET /artifacts                      index of published entries
    GET /artifacts/<kind>/<key>         one entry as an uncompressed tar
                                        (404: the service has no such
                                        entry)
    PUT /artifacts/<kind>/<key>         publish one entry tar

Agents call :func:`sync_before_run` to pull warm K0/K1 entries for a
spec from the service before executing it (a sweep's second host gets
the first host's generate/sort work for the price of a localhost-or-LAN
transfer), then :func:`sync_after_run` to push whatever the run
produced that the service lacked — so the *next* worker's GET hits.
Every transfer is best-effort: a sync failure degrades to a cold cache,
never to a failed job.
"""

from __future__ import annotations

import urllib.error
import urllib.request
from typing import Dict, List, Optional

from repro.api.runner import spec_cache_fields
from repro.api.spec import RunSpec
from repro.core.artifacts import ArtifactCache, cache_key

#: Per-transfer HTTP budget; entries at service scales are MBs, not GBs.
SYNC_TIMEOUT_SECONDS = 60.0


def entry_url(base: str, kind: str, key: str) -> str:
    return f"{base.rstrip('/')}/artifacts/{kind}/{key}"


def fetch_entry(base: str, kind: str, key: str) -> Optional[bytes]:
    """Download one entry tar; ``None`` on a miss or any failure."""
    try:
        with urllib.request.urlopen(
            entry_url(base, kind, key), timeout=SYNC_TIMEOUT_SECONDS
        ) as response:
            return response.read()
    except (urllib.error.URLError, OSError, ValueError):
        return None


def push_entry(base: str, kind: str, key: str, data: bytes) -> bool:
    """Upload one entry tar; ``False`` on rejection or any failure."""
    request = urllib.request.Request(
        entry_url(base, kind, key),
        data=data,
        headers={"Content-Type": "application/x-tar"},
        method="PUT",
    )
    try:
        with urllib.request.urlopen(
            request, timeout=SYNC_TIMEOUT_SECONDS
        ) as response:
            return 200 <= response.status < 300
    except (urllib.error.URLError, OSError, ValueError):
        return False


def spec_sync_keys(spec: RunSpec) -> Dict[str, str]:
    """``{kind: cache_key}`` for the entries a spec would read/write."""
    return {
        kind: cache_key(fields)
        for kind, fields in spec_cache_fields(spec).items()
    }


def sync_before_run(
    cache: ArtifactCache, base: str, spec: RunSpec
) -> Dict[str, List[str]]:
    """Pull the spec's warm K0/K1 entries from the service.

    Returns a summary: ``fetched`` (imported from the service),
    ``local`` (already warm here), ``missing`` (cold everywhere — the
    run will produce them; :func:`sync_after_run` pushes them back).
    Labels are ``"<kind>/<key>"``.
    """
    summary: Dict[str, List[str]] = {
        "fetched": [], "local": [], "missing": [],
    }
    for kind, key in spec_sync_keys(spec).items():
        label = f"{kind}/{key}"
        if cache.published(kind, key):
            summary["local"].append(label)
            continue
        data = fetch_entry(base, kind, key)
        if data is not None and cache.import_entry(kind, key, data):
            summary["fetched"].append(label)
        else:
            summary["missing"].append(label)
    return summary


def sync_after_run(
    cache: ArtifactCache, base: str, spec: RunSpec,
    before: Optional[Dict[str, List[str]]] = None,
) -> List[str]:
    """Push entries the run produced that the service lacked.

    ``before`` (a :func:`sync_before_run` summary) narrows the pushes
    to entries that were missing on the service; without it every
    locally-present entry for the spec is offered (the PUT side
    deduplicates by key).  Returns the pushed ``"<kind>/<key>"`` labels.
    """
    candidates = spec_sync_keys(spec)
    if before is not None:
        missing = set(before.get("missing", ()))
        candidates = {
            kind: key for kind, key in candidates.items()
            if f"{kind}/{key}" in missing
        }
    pushed: List[str] = []
    for kind, key in candidates.items():
        data = cache.export_entry(kind, key)
        if data is None:
            continue  # the run did not produce it (e.g. cache off)
        if push_entry(base, kind, key, data):
            pushed.append(f"{kind}/{key}")
    return pushed
