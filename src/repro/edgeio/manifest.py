"""Dataset manifests: JSON descriptions of a sharded edge directory.

Every :class:`repro.edgeio.dataset.EdgeDataset` write drops a
``manifest.json`` next to the shards recording the shard names, per-shard
edge counts, CRC32 checksums, total edge count, vertex count, and the
on-disk vertex base.  Readers use it to (a) avoid re-counting edges,
(b) detect missing/truncated shards before a kernel starts, (c) check
every read of a shard against its CRC32, and (d) keep 0-based/1-based
bookkeeping honest across kernels.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List

from repro.edgeio.errors import DatasetLayoutError

MANIFEST_NAME = "manifest.json"
_FORMAT_VERSION = 1


@dataclass(frozen=True)
class ShardInfo:
    """One shard's identity and integrity data.

    Attributes
    ----------
    name:
        File name relative to the dataset directory.
    num_edges:
        Edge (line) count in the shard.
    crc32:
        CRC32 of the file's bytes, checked by every shard read.
    num_bytes:
        File size in bytes at write time.
    """

    name: str
    num_edges: int
    crc32: int
    num_bytes: int = 0


@dataclass
class DatasetManifest:
    """Top-level manifest for a sharded edge dataset.

    Attributes
    ----------
    num_vertices:
        Declared vertex-count bound ``N`` (labels are ``< N``).
    num_edges:
        Total edges across shards.
    vertex_base:
        On-disk label base (0 or 1).
    shards:
        Per-shard info, in shard order.
    fmt:
        Payload format: ``"tsv"`` or ``"npy"``.
    extra:
        Free-form metadata (e.g. generating kernel, config echo).
    """

    num_vertices: int
    num_edges: int
    vertex_base: int = 0
    shards: List[ShardInfo] = field(default_factory=list)
    fmt: str = "tsv"
    extra: Dict[str, object] = field(default_factory=dict)

    def to_json(self) -> str:
        """Serialise to a stable, human-diffable JSON document."""
        doc = {
            "format_version": _FORMAT_VERSION,
            "num_vertices": self.num_vertices,
            "num_edges": self.num_edges,
            "vertex_base": self.vertex_base,
            "fmt": self.fmt,
            "shards": [asdict(s) for s in self.shards],
            "extra": self.extra,
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "DatasetManifest":
        """Parse a manifest document, raising on schema violations."""
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DatasetLayoutError(f"manifest is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise DatasetLayoutError("manifest root must be a JSON object")
        version = doc.get("format_version")
        if version != _FORMAT_VERSION:
            raise DatasetLayoutError(
                f"unsupported manifest format_version {version!r} "
                f"(expected {_FORMAT_VERSION})"
            )
        try:
            shards = [ShardInfo(**s) for s in doc.get("shards", [])]
            if any(type(s.crc32) is not int for s in shards):
                raise ValueError("a shard entry has no integer crc32")
            return cls(
                num_vertices=int(doc["num_vertices"]),
                num_edges=int(doc["num_edges"]),
                vertex_base=int(doc.get("vertex_base", 0)),
                shards=shards,
                fmt=str(doc.get("fmt", "tsv")),
                extra=dict(doc.get("extra", {})),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DatasetLayoutError(f"manifest is malformed: {exc}") from exc

    def save(self, directory: Path) -> Path:
        """Write the manifest into ``directory`` and return its path."""
        path = Path(directory) / MANIFEST_NAME
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(self.to_json(), encoding="utf-8")
        tmp.replace(path)
        return path

    @classmethod
    def load(cls, directory: Path) -> "DatasetManifest":
        """Read the manifest from ``directory``.

        Raises
        ------
        DatasetLayoutError
            When the manifest is absent or malformed.
        """
        path = Path(directory) / MANIFEST_NAME
        if not path.exists():
            raise DatasetLayoutError(f"no {MANIFEST_NAME} in {directory}")
        return cls.from_json(path.read_text(encoding="utf-8"))

    def verify_against(self, directory: Path) -> None:
        """Check that every shard exists with the recorded byte size.

        Raises
        ------
        DatasetLayoutError
            On missing shards or size mismatches (truncated writes).
        """
        directory = Path(directory)
        for shard in self.shards:
            path = directory / shard.name
            if not path.exists():
                raise DatasetLayoutError(f"shard missing on disk: {path}")
            actual = path.stat().st_size
            if shard.num_bytes and actual != shard.num_bytes:
                raise DatasetLayoutError(
                    f"shard {path} is {actual} bytes, manifest says "
                    f"{shard.num_bytes} (truncated or modified?)"
                )
