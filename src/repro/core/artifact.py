"""Compiled model artifacts: export a fitted evaluator, reload with zero rebuild.

BSTC's selling point is that classification needs no expensive offline model —
but the vectorized engine still pays the full :class:`FastBSTCEvaluator` plan
compile (dense per-class matmuls over the whole training matrix) on every cold
start.  This module removes that cost from the serving path:

* :func:`save_artifact` exports a fitted evaluator's **compiled evaluation
  plan** (:mod:`repro.core.plan`) — one flat ``arena_<field>`` member per
  structure-of-arrays field plus a tiny int64 geometry table — alongside
  the arithmetization, the training-data fingerprint and a format version,
  in a single uncompressed ``.npz`` file (format v3);
* :func:`load_artifact` reconstructs a working evaluator **without
  recompiling anything**: every stored array is memory-mapped straight out
  of the zip archive (members are stored uncompressed, so each embedded
  ``.npy`` payload is a contiguous byte range that :class:`numpy.memmap`
  can address directly; :func:`save_artifact` starts each one on a 64-byte
  boundary, and older unaligned files map too) and the per-class plan views
  are rebuilt over the mapped arena without copying a byte.  Cold start
  becomes a zip-directory parse plus a few header reads; arena pages fault
  in lazily as the first queries touch them.  Format v2 artifacts still
  load: their arena is a superset of v3's with identical dtypes, so the
  extra members and geometry columns are ignored.  Format v1 artifacts
  (the retired per-class table layout) are refused with an
  :class:`ArtifactError` that says to refit and save the model again.

A loaded evaluator carries a :class:`DatasetSummary` instead of the full
training :class:`~repro.datasets.dataset.RelationalDataset`: the evaluation
kernels only need the item/class geometry and the fingerprint.  The
fingerprint is the safety rail — it is stored at save time and checked by
:func:`load_artifact` when the caller states which training data it expects,
so a stale artifact can never silently answer for the wrong model.

Predictions from a loaded evaluator are bit-identical to the in-memory one
(property-tested across all arithmetizations): the same arrays feed the same
kernels, whether their pages live on the heap or in the page cache.

**Integrity.** The memmap fast path deliberately bypasses ``zipfile`` — and
with it the zip CRC check — so a bit-rotted or truncated artifact could
otherwise serve garbage silently.  :func:`save_artifact` therefore appends
an ``integrity.json`` member recording each member's payload CRC-32 and
size plus a whole-file root digest (SHA-256 over the sorted member
records).  :func:`load_artifact` verifies the manifest and the metadata
members on every load, and the (large) table members either eagerly
(``verify="eager"``) or on the first query that touches the evaluator
(``verify="lazy"``, the default — cold start stays a directory parse).  A
detected corruption raises :class:`ArtifactCorrupt` and, under the default
``on_corrupt="quarantine"``, moves the file into ``<path>.quarantine/`` so
a crash-looping loader cannot keep re-serving the same bad bytes.
Artifacts written before this scheme (no ``integrity.json``) still load;
the skip is counted under ``artifact_unverified_loads``.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import struct
import threading
import zipfile
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Dict, List, Optional, Tuple, Union

import numpy as np

from ..errors import ReproError
from ..evaluation.timing import engine_counters
from .arithmetization import get_combiner
from .fast import FastBSTCEvaluator, discard_evaluator
from .plan import ARENA_FIELDS, GEOMETRY_COLUMNS, plan_from_arena

PathLike = Union[str, Path]

__all__ = [
    "ARTIFACT_FORMAT_VERSION",
    "ArtifactCorrupt",
    "ArtifactError",
    "ArtifactStale",
    "DatasetSummary",
    "load_artifact",
    "refresh_artifact",
    "save_artifact",
]

#: Bumped whenever the stored array layout changes.  Loaders refuse every
#: version outside :data:`_READABLE_VERSIONS` instead of guessing.
ARTIFACT_FORMAT_VERSION = 3
#: Format 2 stored four geometry columns and seven more arena members
#: (float32 row copies, gather lists, counts and masks); its ``inside``,
#: ``outside``, ``pair_len`` and ``pair_neg`` are format 3's, byte for byte.
_READABLE_VERSIONS = (2, ARTIFACT_FORMAT_VERSION)


#: Zip member carrying the per-member CRCs and the root digest.
_INTEGRITY_MEMBER = "integrity.json"


class ArtifactError(ReproError, ValueError):
    """Raised when a model artifact is malformed, truncated, from an
    unknown format version, or carries the wrong training-data fingerprint."""


class ArtifactStale(ArtifactError):
    """The artifact's training-data fingerprint does not match the one the
    caller expects — the file is intact, but it answers for the wrong
    model.  Never quarantined."""


class ArtifactCorrupt(ArtifactError):
    """The artifact's bytes disagree with its integrity manifest.

    Attributes:
        path: the artifact as it was opened.
        member: the first member whose payload failed its CRC (``None``
            when the manifest itself is damaged).
        quarantine_path: where the file was moved when the quarantine
            policy applied, else ``None``.
    """

    def __init__(
        self,
        path: Path,
        detail: str,
        member: Optional[str] = None,
        quarantine_path: Optional[Path] = None,
    ):
        message = f"{path}: corrupt artifact ({detail})"
        if member is not None:
            message += f" [member {member!r}]"
        if quarantine_path is not None:
            message += f"; quarantined to {quarantine_path}"
        super().__init__(message)
        self.path = Path(path)
        self.member = member
        self.quarantine_path = quarantine_path


@dataclass(frozen=True)
class DatasetSummary:
    """The slice of a training dataset an evaluator actually consumes.

    Stands in for the full :class:`~repro.datasets.dataset.RelationalDataset`
    on artifact-loaded evaluators: the kernels need only the geometry
    (``n_items``, ``n_classes``), the display vocabularies, and the content
    ``fingerprint`` that keys the evaluator cache and validates reloads.
    """

    n_items: int
    n_classes: int
    n_samples: int
    fingerprint: str
    item_names: Tuple[str, ...]
    class_names: Tuple[str, ...]


# ----------------------------------------------------------------------
# Saving
# ----------------------------------------------------------------------


def save_artifact(evaluator: FastBSTCEvaluator, path: PathLike) -> Path:
    """Export a fitted evaluator as a single ``.npz`` model artifact.

    The file is written uncompressed on purpose: compression would defeat
    the memory-mapped zero-copy load path, and boolean/float32 arenas are
    already compact.  Every member's ``.npy`` payload starts on a
    :data:`_PAYLOAD_ALIGN`-byte boundary (:func:`_write_npz`), so every
    mapped arena array is aligned.  It stores the compiled evaluation plan
    (format v3: the four-member arena plus its geometry table).  Returns
    the path written.

    The file is written to a uniquely named temporary sibling and renamed
    over ``path``, so saving over the artifact a loaded model maps (e.g.
    ``BSTClassifier.load(p).save(p)``) never truncates the mapped pages,
    and a failed write leaves any existing file intact.
    """
    dataset = evaluator.dataset
    plan = evaluator.plan
    arrays: Dict[str, np.ndarray] = {
        "meta_format_version": np.array(
            ARTIFACT_FORMAT_VERSION, dtype=np.int64
        ),
        "meta_arithmetization": np.array(evaluator.arithmetization),
        "meta_fingerprint": np.array(dataset.fingerprint),
        "meta_n_items": np.array(dataset.n_items, dtype=np.int64),
        "meta_n_classes": np.array(dataset.n_classes, dtype=np.int64),
        "meta_n_samples": np.array(dataset.n_samples, dtype=np.int64),
        "meta_item_names": np.array(list(dataset.item_names)),
        "meta_class_names": np.array(list(dataset.class_names)),
        "meta_plan_geometry": plan.geometry,
    }
    for name in ARENA_FIELDS:
        arrays[f"arena_{name}"] = plan.arena[name]
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.urandom(6).hex()}.tmp")
    # O_EXCL: never write into a file another writer owns; mode 0o666
    # keeps the umask-derived permissions a plain open() would give.
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "wb") as handle:
            _write_npz(handle, arrays)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    engine_counters.increment("artifact_saves")
    return path


def _integrity_root(members: Dict[str, Dict[str, int]]) -> str:
    """Whole-file digest: SHA-256 over the sorted member records, so one
    flipped bit anywhere in the manifest (or a dropped/added member) breaks
    the root without the manifest having to hash itself."""
    digest = hashlib.sha256()
    for name in sorted(members):
        record = members[name]
        digest.update(
            f"{name}:{record['size']}:{record['crc32']:08x}\n".encode()
        )
    return digest.hexdigest()


#: Every stored member's payload starts on a multiple of this many bytes.
#: ``.npy`` headers are padded to a multiple of 64 bytes too, so each
#: array's data — and every arena view sliced from it — is 64-byte aligned.
_PAYLOAD_ALIGN = 64
#: Extra-field id of the alignment padding record (the id ``zipalign``
#: uses): a 2-byte alignment then zero bytes, so the shortest record is
#: 6 bytes (with the id and size fields).
_ALIGN_EXTRA_ID = 0xD935
_ALIGN_EXTRA_MIN = 6
#: Fixed member timestamp, so the same arrays always give the same bytes
#: (a cold save and a delta refresh of the same data are byte-identical).
_MEMBER_DATE_TIME = (1980, 1, 1, 0, 0, 0)


def _member_info(name: str, offset: int, size: int) -> zipfile.ZipInfo:
    """A stored member whose payload lands on a :data:`_PAYLOAD_ALIGN`
    boundary when its local header starts at ``offset``: the local
    header's extra field carries the padding, as ``zipalign`` does."""
    info = zipfile.ZipInfo(name, date_time=_MEMBER_DATE_TIME)
    info.compress_type = zipfile.ZIP_STORED
    # A preset size makes zipfile add its 20-byte zip64 record only when
    # the member needs it (its own test, repeated here to place the pad).
    info.file_size = size
    zip64 = size * 1.05 > zipfile.ZIP64_LIMIT
    end = (
        offset + _LOCAL_HEADER_SIZE + len(name.encode("ascii"))
        + (20 if zip64 else 0)
    )
    pad = -end % _PAYLOAD_ALIGN
    if pad < _ALIGN_EXTRA_MIN:
        pad += _PAYLOAD_ALIGN
    info.extra = struct.pack(
        "<HHH", _ALIGN_EXTRA_ID, pad - 4, _PAYLOAD_ALIGN
    ) + bytes(pad - _ALIGN_EXTRA_MIN)
    return info


def _write_npz(handle: BinaryIO, arrays: Dict[str, np.ndarray]) -> None:
    """Write ``arrays`` to ``handle`` (positioned at its start) as an
    uncompressed ``.npz`` whose ``.npy`` payloads all start on a
    :data:`_PAYLOAD_ALIGN`-byte boundary, then the ``integrity.json``
    member: each member's payload CRC-32 + size and the root digest.  The
    CRCs are the ones zipfile computes while writing, so saving stays
    write-once; each array streams straight from its buffer, with no
    whole-file or whole-array copy."""
    members: Dict[str, Dict[str, int]] = {}
    with zipfile.ZipFile(handle, "w") as archive:
        for key, value in arrays.items():
            value = np.asarray(value, order="C")
            header = io.BytesIO()
            np.lib.format.write_array_header_1_0(
                header, np.lib.format.header_data_from_array_1_0(value)
            )
            name = f"{key}.npy"
            info = _member_info(
                name, handle.tell(), header.tell() + value.nbytes
            )
            with archive.open(info, "w") as member:
                member.write(header.getvalue())
                member.write(memoryview(value.reshape(-1).view(np.uint8)))
            members[name] = {"crc32": int(info.CRC), "size": int(info.file_size)}
        payload = {
            "version": 1,
            "algorithm": "crc32",
            "members": members,
            "root_sha256": _integrity_root(members),
        }
        archive.writestr(
            zipfile.ZipInfo(_INTEGRITY_MEMBER, date_time=_MEMBER_DATE_TIME),
            json.dumps(payload, sort_keys=True),
        )


def refresh_artifact(
    path: PathLike,
    dataset,
    *,
    out_path: Optional[PathLike] = None,
    expected_fingerprint: Optional[str] = None,
) -> Path:
    """Delta-refresh a saved artifact against an append-only grown dataset.

    The incremental counterpart of save-after-refit: the stored plan is
    loaded (eagerly verified — corrupt or stale bytes are refused before
    anything is written) and recompiled via
    :func:`repro.core.plan.recompile_delta`, so only the blocks that touch
    the appended rows run fresh matmuls while every class the new rows never
    reach is copied verbatim.  ``dataset`` must be the grown
    :class:`~repro.datasets.dataset.RelationalDataset` whose first
    ``n_samples`` rows are the artifact's original training data (e.g. the
    result of :meth:`~repro.datasets.dataset.RelationalDataset.append_samples`);
    the recompile checks that prefix against the stored plan's row blocks and
    raises :class:`ArtifactStale` — leaving the file untouched — when the
    dataset does not extend the artifact's training data.

    When ``out_path`` is omitted the refreshed artifact replaces ``path``
    atomically: the new file is written to a temporary sibling and renamed
    over the original, so a serving process that memory-mapped the old bytes
    keeps its pages while every later load sees the refreshed model.  The
    resulting file is bit-compatible with a cold ``fit`` + ``save_artifact``
    on the grown dataset (same arena bytes, same predictions).  Returns the
    path written.
    """
    path = Path(path)
    evaluator = load_artifact(
        path,
        expected_fingerprint=expected_fingerprint,
        verify="eager",
        on_corrupt="fail",
    )
    try:
        refreshed = evaluator.append_rows(dataset)
    except ValueError as exc:
        # The delta recompile validates that the dataset's first rows
        # reproduce the stored plan's training blocks; any mismatch means
        # this artifact answers for different training data.
        raise ArtifactStale(f"{path}: {exc}") from exc
    target = save_artifact(
        refreshed, Path(out_path) if out_path is not None else path
    )
    engine_counters.increment("artifact_refreshes")
    return target


# ----------------------------------------------------------------------
# Memory-mapped member access
# ----------------------------------------------------------------------

_LOCAL_HEADER_SIGNATURE = b"PK\x03\x04"
_LOCAL_HEADER_SIZE = 30


def _stored_member_offsets(path: Path) -> Optional[Dict[str, int]]:
    """Byte offset of each member's payload inside the zip, or ``None``
    when any member is compressed (mmap needs raw stored bytes)."""
    offsets: Dict[str, int] = {}
    with zipfile.ZipFile(path) as archive, path.open("rb") as raw:
        for info in archive.infolist():
            if info.compress_type != zipfile.ZIP_STORED:
                return None
            raw.seek(info.header_offset)
            header = raw.read(_LOCAL_HEADER_SIZE)
            if (
                len(header) != _LOCAL_HEADER_SIZE
                or header[:4] != _LOCAL_HEADER_SIGNATURE
            ):
                return None
            # The local header's own name/extra lengths (they can differ
            # from the central directory's copies).
            name_len, extra_len = struct.unpack("<HH", header[26:30])
            offsets[info.filename] = (
                info.header_offset + _LOCAL_HEADER_SIZE + name_len + extra_len
            )
    return offsets


def _mmap_member(path: Path, offset: int) -> Optional[np.ndarray]:
    """Memory-map one stored ``.npy`` member; ``None`` if it cannot be
    mapped (object dtype, unknown npy version, empty payload)."""
    with path.open("rb") as handle:
        handle.seek(offset)
        try:
            version = np.lib.format.read_magic(handle)
            if version == (1, 0):
                shape, fortran, dtype = np.lib.format.read_array_header_1_0(handle)
            elif version == (2, 0):
                shape, fortran, dtype = np.lib.format.read_array_header_2_0(handle)
            else:
                return None
        except ValueError:
            return None
        if dtype.hasobject:
            return None
        data_offset = handle.tell()
    if int(np.prod(shape, dtype=np.int64)) == 0:
        # mmap cannot address a zero-length range; an empty array is free.
        return np.empty(shape, dtype=dtype, order="F" if fortran else "C")
    return np.memmap(
        path,
        dtype=dtype,
        mode="r",
        offset=data_offset,
        shape=tuple(int(s) for s in shape),
        order="F" if fortran else "C",
    )


# ----------------------------------------------------------------------
# Integrity verification and quarantine
# ----------------------------------------------------------------------

_VERIFY_MODES = ("lazy", "eager", "off")
_CORRUPT_POLICIES = ("fail", "quarantine")
_CRC_CHUNK = 1 << 20
#: Below this many payload bytes a CRC pass runs sequentially — spawning
#: the verification thread pool costs more than hashing a few megabytes.
_PARALLEL_VERIFY_BYTES = 4 << 20


def _quarantine(path: Path) -> Optional[Path]:
    """Move a corrupt artifact into ``<path>.quarantine/`` so the next load
    attempt cannot re-serve the same bad bytes.  Returns the new location,
    or ``None`` when the move itself failed (the corruption error still
    propagates either way)."""
    try:
        directory = path.with_name(path.name + ".quarantine")
        directory.mkdir(exist_ok=True)
        destination = directory / path.name
        suffix = 0
        while destination.exists():
            suffix += 1
            destination = directory / f"{path.name}.{suffix}"
        os.replace(path, destination)
    except OSError:
        return None
    engine_counters.increment("artifact_quarantines")
    return destination


def _raise_corrupt(
    path: Path, detail: str, member: Optional[str], on_corrupt: str
) -> None:
    engine_counters.increment("artifact_corrupt")
    quarantine_path = _quarantine(path) if on_corrupt == "quarantine" else None
    raise ArtifactCorrupt(
        path, detail, member=member, quarantine_path=quarantine_path
    )


def _read_integrity(
    path: Path, archive: Optional[zipfile.ZipFile] = None
) -> Optional[Dict[str, Dict[str, int]]]:
    """The artifact's member records, or ``None`` for pre-integrity files.
    Raises ``ValueError`` when the manifest is present but damaged.  Pass
    an already-open ``archive`` to skip reparsing the central directory."""
    if archive is not None:
        if _INTEGRITY_MEMBER not in archive.namelist():
            return None
        raw = archive.read(_INTEGRITY_MEMBER)
    else:
        with zipfile.ZipFile(path) as owned:
            if _INTEGRITY_MEMBER not in owned.namelist():
                return None
            raw = owned.read(_INTEGRITY_MEMBER)
    try:
        payload = json.loads(raw.decode())
        members = {
            str(name): {"crc32": int(rec["crc32"]), "size": int(rec["size"])}
            for name, rec in payload["members"].items()
        }
        recorded_root = str(payload["root_sha256"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"unreadable integrity manifest: {exc}") from exc
    if _integrity_root(members) != recorded_root:
        raise ValueError("integrity manifest does not match its root digest")
    return members


def _member_crc(
    path: Path, name: str, size: int, offset: Optional[int]
) -> int:
    """CRC-32 of one member's payload — straight off the stored byte range
    when the offset map is available, through ``zipfile`` otherwise."""
    if offset is None:
        with zipfile.ZipFile(path) as archive:
            return zlib.crc32(archive.read(name))
    crc = 0
    remaining = size
    with path.open("rb") as handle:
        handle.seek(offset)
        while remaining > 0:
            chunk = handle.read(min(_CRC_CHUNK, remaining))
            if not chunk:
                raise ValueError(f"member {name!r} payload is truncated")
            crc = zlib.crc32(chunk, crc)
            remaining -= len(chunk)
    return crc


def _verify_members(
    path: Path,
    names: List[str],
    records: Dict[str, Dict[str, int]],
    offsets: Optional[Dict[str, int]],
    on_corrupt: str,
) -> None:
    """Check each named member's payload against its recorded CRC.

    Payload CRCs are computed on a small thread pool (``zlib.crc32``
    releases the GIL on large buffers, so this scales to real cores and
    keeps the serving cold start cheap on multi-megabyte tables).  Results
    are then checked sequentially in ``names`` order, so the member blamed
    for a corruption is deterministic regardless of thread scheduling.
    """

    def member_crc(name: str):
        try:
            return _member_crc(
                path,
                name,
                records[name]["size"],
                None if offsets is None else offsets.get(name),
            )
        except (OSError, ValueError, zipfile.BadZipFile, zlib.error) as exc:
            return exc

    total_bytes = sum(records[name]["size"] for name in names)
    with engine_counters.track("artifact_verify"):
        if len(names) > 1 and total_bytes >= _PARALLEL_VERIFY_BYTES:
            workers = min(4, len(names), os.cpu_count() or 1)
            with ThreadPoolExecutor(max_workers=workers) as pool:
                outcomes = dict(zip(names, pool.map(member_crc, names)))
        else:
            # Below a few megabytes the pool spawn costs more than the
            # hashing; metadata-only passes (the lazy cold start) stay
            # sequential.
            outcomes = {name: member_crc(name) for name in names}
        for name in names:
            outcome = outcomes[name]
            if isinstance(outcome, Exception):
                _raise_corrupt(path, str(outcome), name, on_corrupt)
            if outcome != records[name]["crc32"]:
                _raise_corrupt(
                    path,
                    f"payload CRC {outcome:08x} !="
                    f" recorded {records[name]['crc32']:08x}",
                    name,
                    on_corrupt,
                )
            engine_counters.increment("artifact_members_verified")


class _IntegrityGuard:
    """Deferred table verification, run once on the evaluator's first query.

    ``verify="lazy"`` keeps cold start at a directory parse: the guard
    carries the member records and byte offsets captured at load time and
    checks the table payloads from the serving thread that first touches
    them.  Thread-safe; a detected corruption is cached and re-raised on
    every subsequent call, and the poisoned evaluator is dropped from the
    process-wide cache so a refit cannot pick it up.
    """

    def __init__(
        self,
        path: Path,
        names: List[str],
        records: Dict[str, Dict[str, int]],
        offsets: Optional[Dict[str, int]],
        on_corrupt: str,
        fingerprint: str,
        arithmetization: str,
    ):
        self._path = path
        self._names = names
        self._records = records
        self._offsets = offsets
        self._on_corrupt = on_corrupt
        self._fingerprint = fingerprint
        self._arithmetization = arithmetization
        self._lock = threading.Lock()
        self._verified = False
        self._error: Optional[ArtifactCorrupt] = None

    def __call__(self) -> None:
        if self._verified:
            return
        with self._lock:
            if self._verified:
                return
            if self._error is not None:
                raise self._error
            try:
                _verify_members(
                    self._path,
                    self._names,
                    self._records,
                    self._offsets,
                    self._on_corrupt,
                )
            except ArtifactCorrupt as exc:
                self._error = exc
                discard_evaluator(self._fingerprint, self._arithmetization)
                raise
            self._verified = True


class _ArtifactReader:
    """Array access over an artifact: memory-mapped when the archive is
    stored uncompressed, eagerly loaded otherwise."""

    def __init__(self, path: Path, mmap: bool):
        self._path = path
        self._npz = np.load(path, allow_pickle=False)
        self._offsets: Optional[Dict[str, int]] = None
        if mmap:
            try:
                self._offsets = _stored_member_offsets(path)
            except (OSError, zipfile.BadZipFile):
                self._offsets = None

    @property
    def names(self) -> List[str]:
        return list(self._npz.files)

    def member_names(self) -> List[str]:
        """Raw zip member names (``.npy`` suffixes intact), served from the
        archive handle ``np.load`` already holds open — no reparse."""
        archive = getattr(self._npz, "zip", None)
        if archive is not None:
            return archive.namelist()
        with zipfile.ZipFile(self._path) as fallback:
            return fallback.namelist()

    def eager(self, name: str) -> np.ndarray:
        """In-memory copy (metadata scalars and string vocabularies)."""
        if name not in self._npz.files:
            raise ArtifactError(
                f"{self._path}: artifact is missing required entry {name!r}"
            )
        return self._npz[name]

    def array(self, name: str) -> np.ndarray:
        """Table payload: memory-mapped when possible, eager otherwise."""
        if self._offsets is not None:
            offset = self._offsets.get(f"{name}.npy")
            if offset is not None:
                mapped = _mmap_member(self._path, offset)
                if mapped is not None:
                    return mapped
        return self.eager(name)

    def close(self) -> None:
        self._npz.close()


# ----------------------------------------------------------------------
# Loading
# ----------------------------------------------------------------------


#: Arena members whose dtype the kernel relies on structurally
#: (``pair_len`` may legitimately be float32 or the wide float64, so only
#: its size is validated).
_ARENA_FIXED_DTYPES: Dict[str, np.dtype] = {
    "inside": np.dtype(bool),
    "outside": np.dtype(bool),
    "pair_neg": np.dtype(bool),
}


def _load_plan(
    path: Path,
    reader: "_ArtifactReader",
    summary: DatasetSummary,
    arithmetization: str,
    version: int,
    on_corrupt: str,
) -> FastBSTCEvaluator:
    """Rebuild the compiled plan's per-class views over the stored arena —
    the zero-copy path: every view is a slice of a (typically memory-mapped)
    ``arena_<field>`` member.  Members and geometry columns past format 3's
    (a format 2 file's) are never read."""
    geometry = reader.eager("meta_plan_geometry")
    if geometry.ndim != 2 or geometry.shape[0] != summary.n_classes:
        raise ArtifactError(
            f"{path}: plan geometry has shape {tuple(geometry.shape)}, which"
            f" does not cover every class ({summary.n_classes})"
        )
    if version == 2:
        geometry = geometry[:, :GEOMETRY_COLUMNS]
    arena: Dict[str, np.ndarray] = {}
    try:
        for name in ARENA_FIELDS:
            arena[name] = reader.array(f"arena_{name}")
    except (zipfile.BadZipFile, zlib.error) as exc:
        _raise_corrupt(path, str(exc), None, on_corrupt)
    for name, expected_dtype in _ARENA_FIXED_DTYPES.items():
        if arena[name].dtype != expected_dtype:
            raise ArtifactError(
                f"{path}: arena member {name!r} has dtype"
                f" {arena[name].dtype}, expected {expected_dtype}"
            )
    with engine_counters.track("artifact_load"):
        try:
            plan = plan_from_arena(arena, geometry, summary.n_items)
        except ValueError as exc:
            raise ArtifactError(f"{path}: {exc}") from exc
        return FastBSTCEvaluator._from_plan(summary, arithmetization, plan)


def load_artifact(
    path: PathLike,
    expected_fingerprint: Optional[str] = None,
    mmap: bool = True,
    *,
    verify: str = "lazy",
    on_corrupt: str = "quarantine",
) -> FastBSTCEvaluator:
    """Reconstruct a :class:`FastBSTCEvaluator` from a saved artifact.

    No table is rebuilt: the per-class arrays are handed to the evaluator
    exactly as stored, memory-mapped out of the archive when ``mmap`` is
    true (the default).  The evaluator's ``dataset`` attribute is a
    :class:`DatasetSummary`.

    Args:
        path: the ``.npz`` file written by :func:`save_artifact`.
        expected_fingerprint: when given, the artifact must carry exactly
            this training-data fingerprint — pass
            ``dataset.fingerprint`` to guarantee the loaded model answers
            for that training data, or a fingerprint recorded elsewhere.
        mmap: memory-map the table arrays (set False to force an eager,
            self-contained load, e.g. before deleting the file).
        verify: integrity checking against the embedded manifest —
            ``"lazy"`` (default) checks the manifest and metadata now and
            the table payloads on the evaluator's first query, ``"eager"``
            checks everything before returning, ``"off"`` skips payload
            checks entirely.  Artifacts without a manifest load unverified
            (counted under ``artifact_unverified_loads``).
        on_corrupt: ``"quarantine"`` (default) moves a corrupt file into
            ``<path>.quarantine/`` before raising; ``"fail"`` raises in
            place.

    Raises:
        ArtifactError: missing/malformed entries or an unknown format
            version; :class:`ArtifactStale` on a fingerprint mismatch;
            :class:`ArtifactCorrupt` when the bytes disagree with the
            integrity manifest.
    """
    path = Path(path)
    if verify not in _VERIFY_MODES:
        raise ValueError(f"verify must be one of {_VERIFY_MODES}")
    if on_corrupt not in _CORRUPT_POLICIES:
        raise ValueError(f"on_corrupt must be one of {_CORRUPT_POLICIES}")
    if not path.exists():
        raise ArtifactError(f"{path}: no such artifact")
    try:
        reader = _ArtifactReader(path, mmap=mmap)
    except (OSError, ValueError, zipfile.BadZipFile) as exc:
        raise ArtifactError(f"{path}: not a model artifact: {exc}") from exc
    try:
        deferred: Optional[Tuple[List[str], Dict[str, Dict[str, int]], Optional[Dict[str, int]]]] = None
        if verify != "off":
            try:
                records = _read_integrity(
                    path, getattr(reader._npz, "zip", None)
                )
            except (OSError, ValueError, zipfile.BadZipFile) as exc:
                records = None
                _raise_corrupt(path, str(exc), _INTEGRITY_MEMBER, on_corrupt)
            if records is None:
                engine_counters.increment("artifact_unverified_loads")
            else:
                present = set(reader.member_names()) - {_INTEGRITY_MEMBER}
                if present != set(records):
                    _raise_corrupt(
                        path,
                        "member list disagrees with the integrity manifest",
                        None,
                        on_corrupt,
                    )
                # The reader already parsed the offset map for mmap access;
                # reparse only when it could not (keeps the lazy cold start
                # at a single central-directory walk).
                verify_offsets = reader._offsets
                if verify_offsets is None:
                    try:
                        verify_offsets = _stored_member_offsets(path)
                    except (OSError, zipfile.BadZipFile):
                        verify_offsets = None
                meta_names = sorted(
                    n for n in records if n.startswith("meta_")
                )
                table_names = sorted(set(records) - set(meta_names))
                # Metadata is consumed right here, so always check it now.
                _verify_members(
                    path, meta_names, records, verify_offsets, on_corrupt
                )
                if verify == "eager" or not mmap:
                    # Eager loads pull every payload through zipfile anyway;
                    # checking now keeps detection ahead of first use.
                    _verify_members(
                        path, table_names, records, verify_offsets, on_corrupt
                    )
                elif table_names:
                    deferred = (table_names, records, verify_offsets)
        version = int(reader.eager("meta_format_version"))
        if version not in _READABLE_VERSIONS:
            raise ArtifactError(
                f"{path}: artifact format version {version} is not supported"
                f" (this build reads versions {_READABLE_VERSIONS});"
                " refit the model and save it again"
            )
        arithmetization = str(reader.eager("meta_arithmetization"))
        try:
            get_combiner(arithmetization)
        except ValueError as exc:
            raise ArtifactError(f"{path}: {exc}") from exc
        fingerprint = str(reader.eager("meta_fingerprint"))
        guard: Optional[_IntegrityGuard] = None
        if deferred is not None:
            guard = _IntegrityGuard(
                path, *deferred, on_corrupt, fingerprint, arithmetization
            )
        if expected_fingerprint is not None and fingerprint != expected_fingerprint:
            raise ArtifactStale(
                f"{path}: artifact fingerprint {fingerprint[:12]}... does not"
                f" match the expected training data"
                f" ({expected_fingerprint[:12]}...); refusing to serve a stale"
                " model"
            )
        n_items = int(reader.eager("meta_n_items"))
        n_classes = int(reader.eager("meta_n_classes"))
        n_samples = int(reader.eager("meta_n_samples"))
        item_names = tuple(str(s) for s in reader.eager("meta_item_names"))
        class_names = tuple(str(s) for s in reader.eager("meta_class_names"))
        if len(item_names) != n_items or len(class_names) != n_classes:
            raise ArtifactError(f"{path}: vocabulary lengths disagree with metadata")

        summary = DatasetSummary(
            n_items=n_items,
            n_classes=n_classes,
            n_samples=n_samples,
            fingerprint=fingerprint,
            item_names=item_names,
            class_names=class_names,
        )
        evaluator = _load_plan(
            path, reader, summary, arithmetization, version, on_corrupt
        )
        # Lazy mode: the table payloads are checked by the first query that
        # touches the evaluator, before any prediction is produced.
        evaluator._integrity_guard = guard
        engine_counters.increment("artifact_loads")
        return evaluator
    finally:
        reader.close()
