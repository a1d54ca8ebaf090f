"""One shard digest, checked everywhere.

Every shard file's CRC32 is recorded when it is written and checked
whenever it is read: by a kernel reading a cached dataset, by async's
Kernel 1 reading the shard its Kernel 0 task just wrote (thread and
process lanes, pipe and shared-memory hand-off), and by ``import_entry``
before it publishes a synced entry.  A changed byte that still parses
is an error naming the file, never a different graph.  A k2 entry's
``csr.npz`` is covered by its zip members' CRC32s instead: a changed
byte there is a miss, purged and rebuilt with the same digest.
"""

from __future__ import annotations

import io
import json
import tarfile
from pathlib import Path

import numpy as np
import pytest

from repro.api import RunSpec, execute_spec
from repro.core import async_executor
from repro.core.artifacts import ArtifactCache
from repro.core.config import PipelineConfig
from repro.core.lanes import ProcessLanePool
from repro.core.pipeline import run_pipeline
from repro.core.results import KernelName
from repro.core.scheduler import SchedulerError
from repro.core.shmplane import shm_available
from repro.edgeio.dataset import EdgeDataset
from repro.edgeio.errors import CorruptEdgeFileError

SPEC = RunSpec(scale=7, seed=1, num_files=2, validation="off")


def _entry(cache_root: Path, kind: str) -> Path:
    (entry,) = [p for p in (cache_root / kind).iterdir() if p.is_dir()]
    return entry


def _flip_parsable(path: Path, fmt: str) -> None:
    """Change one label in ``path`` to a smaller one, keeping the file's
    size: it still parses, still passes the count and bound checks, and
    differs from what was written."""
    payload = bytearray(path.read_bytes())
    if fmt == "npy":
        with open(path, "rb") as fh:
            np.lib.format.read_magic(fh)
            np.lib.format.read_array_header_1_0(fh)
            header = fh.tell()
        values = np.frombuffer(bytes(payload[header:]), dtype="<i8")
        at = header + 8 * int(np.flatnonzero(values % 2 == 1)[0])
        payload[at] -= 1  # an odd label becomes the even one below it
    elif fmt == "tsv":
        at = next(i for i, b in enumerate(payload) if 0x31 <= b <= 0x39)
        payload[at] -= 1
    else:  # tsv.gz: a one-digit change whose recompressed size matches
        import gzip

        text = bytearray(gzip.decompress(bytes(payload)))
        for at, byte in enumerate(text):
            if 0x31 <= byte <= 0x39:
                text[at] -= 1
                candidate = gzip.compress(bytes(text), compresslevel=6)
                if len(candidate) == len(payload):
                    payload = bytearray(candidate)
                    break
                text[at] += 1
        else:
            pytest.fail("no same-size one-digit change found")
    path.write_bytes(bytes(payload))


class TestCachedShards:
    @pytest.mark.parametrize("fmt", ["tsv", "tsv.gz", "npy"])
    def test_changed_k1_shard_byte_raises_naming_the_file(self, tmp_path, fmt):
        spec = SPEC.with_overrides(file_format=fmt)
        cache = tmp_path / "cache"
        execute_spec(spec, cache_dir=cache)
        k1 = _entry(cache, "k1")
        shard = sorted(k1.glob("part-*"))[0]
        _flip_parsable(shard, fmt)
        # Kernel 2 rebuilds from the cached k1 dataset (mapped, for npy).
        ArtifactCache(cache).remove(_entry(cache, "k2").name, "k2")
        with pytest.raises(CorruptEdgeFileError, match="CRC mismatch") as err:
            execute_spec(spec, cache_dir=cache)
        assert shard.name in str(err.value)
        # The same check on a private and a mapped read of the entry.
        for mmap in (False, True):
            dataset = EdgeDataset.open(k1, mmap=mmap)
            with pytest.raises(CorruptEdgeFileError, match="CRC mismatch"):
                dataset.read_all()

    def test_entry_without_shard_crcs_is_torn_and_regenerated(self, tmp_path):
        # An npy entry written before every format recorded a CRC32.
        spec = SPEC.with_overrides(file_format="npy")
        cache = tmp_path / "cache"
        digest = execute_spec(spec, cache_dir=cache).rank_digest
        for kind in ("k0", "k1"):
            manifest = _entry(cache, kind) / "manifest.json"
            doc = json.loads(manifest.read_text())
            for shard in doc["shards"]:
                shard["crc32"] = None
            manifest.write_text(json.dumps(doc))
        ArtifactCache(cache).remove(_entry(cache, "k2").name, "k2")
        outcome = execute_spec(spec, cache_dir=cache)
        assert outcome.rank_digest == digest
        details = outcome.result.kernel(KernelName.K0_GENERATE).details
        assert details["artifact_cache"] == "miss"
        assert EdgeDataset.open(_entry(cache, "k0")).manifest.shards[0].crc32

    def test_changed_k2_matrix_byte_is_a_miss_with_the_same_digest(
        self, tmp_path
    ):
        cache = tmp_path / "cache"
        digest = execute_spec(SPEC, cache_dir=cache).rank_digest
        entry = _entry(cache, "k2")
        _flip_matrix_byte(entry / "csr.npz")
        outcome = execute_spec(SPEC, cache_dir=cache)
        assert outcome.rank_digest == digest
        details = outcome.result.kernel(KernelName.K2_FILTER).details
        assert details["artifact_cache"] == "miss"
        # Purged and published again, and the rebuilt entry is a hit.
        assert ArtifactCache(cache).published("k2", entry.name)
        outcome = execute_spec(SPEC, cache_dir=cache)
        details = outcome.result.kernel(KernelName.K2_FILTER).details
        assert details["artifact_cache"] == "hit"


def _flip_matrix_byte(path: Path) -> None:
    """Flip one byte inside the stored ``data.npy`` member: the zip's
    member CRC32 no longer matches."""
    with np.load(path) as archive:
        values = archive["data"].tobytes()
    payload = bytearray(path.read_bytes())
    at = bytes(payload).find(values)
    assert at > 0 and len(values) > 8
    payload[at + 8] ^= 0x01
    path.write_bytes(bytes(payload))


#: The failure names the K1 read task and the changed K0 file.
_K1_READ_CRC = r"k1:read:\d' failed: .*k0/part-\d+\.tsv: CRC mismatch"


class TestAsyncHandOff:
    """A K0 shard changed after its write task returned, before the K1
    read task that depends on it ran."""

    CONFIG = dict(scale=7, seed=1, num_files=3, execution="async")

    @staticmethod
    def _change_after_write(directory: Path, info) -> None:
        if directory.name == "k0":
            _flip_parsable(directory / info.name, "tsv")

    def test_thread_lanes(self, tmp_path, monkeypatch):
        write_shard = async_executor.write_shard

        def write_then_change(directory, *args, **kwargs):
            info = write_shard(directory, *args, **kwargs)
            self._change_after_write(Path(directory), info)
            return info

        monkeypatch.setattr(async_executor, "write_shard", write_then_change)
        config = PipelineConfig(**self.CONFIG, data_dir=tmp_path,
                                validation="off")
        with pytest.raises(SchedulerError, match=_K1_READ_CRC):
            run_pipeline(config)

    @pytest.mark.parametrize("plane", [
        "pipe",
        pytest.param("shm", marks=pytest.mark.skipif(
            not shm_available(), reason="host cannot create shm segments",
        )),
    ])
    def test_process_lanes(self, tmp_path, monkeypatch, plane):
        dispatch = ProcessLanePool.run_task_timed

        def dispatch_then_change(pool, task):
            result, waited = dispatch(pool, task)
            if task.op.startswith("encode-shard"):
                directory = Path(task.payload["directory"])
                self._change_after_write(directory, result)
            return result, waited

        monkeypatch.setattr(
            ProcessLanePool, "run_task_timed", dispatch_then_change
        )
        config = PipelineConfig(
            **self.CONFIG, data_dir=tmp_path, async_lanes="process",
            shard_plane=plane, validation="off",
        )
        with pytest.raises(SchedulerError, match=_K1_READ_CRC):
            run_pipeline(config)


class TestImportEntry:
    def _exported(self, tmp_path, kind):
        source = ArtifactCache(tmp_path / "a")
        execute_spec(SPEC, cache_dir=source.root)
        key = _entry(source.root, kind).name
        return key, source.export_entry(kind, key)

    @staticmethod
    def _retar(data: bytes, name: str, change) -> bytes:
        """``data`` with member ``name``'s file changed in place."""
        out = io.BytesIO()
        with tarfile.open(fileobj=io.BytesIO(data)) as src, \
                tarfile.open(fileobj=out, mode="w") as dst:
            for member in src.getmembers():
                payload = src.extractfile(member).read()
                if member.name == name:
                    payload = change(payload)
                dst.addfile(member, io.BytesIO(payload))
        return out.getvalue()

    def test_changed_shard_byte_is_refused(self, tmp_path):
        key, data = self._exported(tmp_path, "k1")
        target = ArtifactCache(tmp_path / "b")
        assert target.import_entry("k1", key, data)  # the intact archive
        target.remove(key, "k1")

        def change(payload):
            shard = tmp_path / "shard.tsv"
            shard.write_bytes(payload)
            _flip_parsable(shard, "tsv")
            return shard.read_bytes()

        changed = self._retar(data, "part-00000.tsv", change)
        assert not target.import_entry("k1", key, changed)
        assert not target.published("k1", key)
        assert not list((tmp_path / "b" / "k1").glob("*.tmp-*"))

    def test_changed_matrix_byte_is_refused(self, tmp_path):
        key, data = self._exported(tmp_path, "k2")
        target = ArtifactCache(tmp_path / "b")

        def change(payload):
            npz = tmp_path / "csr.npz"
            npz.write_bytes(payload)
            _flip_matrix_byte(npz)
            return npz.read_bytes()

        changed = self._retar(data, "csr.npz", change)
        assert changed != data
        assert not target.import_entry("k2", key, changed)
        assert not target.published("k2", key)
        assert target.import_entry("k2", key, data)
