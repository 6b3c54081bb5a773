"""Feature container format, manifests, batching, and the synthetic dataset.

Binary layouts (all little-endian):

``EMIF`` feature files
    magic ``EMIF`` | version u16 | three modality blocks in fixed order
    (visual, audio, text), each: present u8 | rows u32 | dim u32 |
    rows*dim float32 values. Features are stored as 32-bit and stay 32-bit
    in memory; the pool widens each value, exactly, as it adds it into the
    float64 block. A write/read round-trip is bit-exact at 32 bits.

``EMIC`` checkpoint files
    magic ``EMIC`` | version u16 | named tensor records until EOF, each:
    name length u16 | UTF-8 name | rank u8 | extents u32 each |
    float64 values. Names are unique within a file.

Readers reject non-finite feature and tensor values, undecodable or repeated
tensor names, tensor ranks numpy cannot represent and extents that overrun
the file with a :class:`~emireg.errors.FormatError` carrying the byte
offset. They map a file read-only and return its feature blocks and tensors
as read-only views of the mapping, never copies, so the file stays mapped
while any of them is referenced. A file is therefore replaced, never
rewritten in place: feature files, checkpoints and, through
:func:`replace_text_file`, the run's text outputs are written to a
temporary file beside the target and renamed over it, so a failed write
leaves the previous file intact and a mapping of the previous file keeps
its bytes. Every text file is read and written as UTF-8, whatever the
locale.

The manifest is a CSV with header ``id,split,path,adm,amu,det,emp,exc,joy``;
paths are resolved relative to the manifest's directory. Test rows may carry
the sentinel target ``SENTINEL_TARGET`` (-1) in all six columns, marking them
metric-excluded.

Loading streams. ``load_split`` parses and checks the manifest and returns
one :class:`Sample` per row, which maps its feature file only while its
``features`` are read. ``make_batches`` resamples samples to the alignment
length into one float64 ``[N x align x d]`` block per modality and stacks
the targets into ``[N x 6]``. It reads the samples one batch at a time and
pools each batch's sequences into that batch's rows of the blocks, in one
pooling call per batch that runs on every CPU the process may use and gives
the bytes of serial pooling, so at most one batch of raw sequences is
mapped at a time. It returns a :class:`Batches` sequence whose every batch
is a read-only view of consecutive rows of those blocks.

Holding a whole split's blocks costs ``align * sum(dims) * 8`` bytes per
sample, so the commands hold one batch instead. :func:`stream_batches`
pools each batch of a split, through ``make_batches``, into the same
reused rows just before it is used. A :class:`Spill` pools a split once
the same way and writes each batch to an unnamed file, one record per
sample; it reads any order of samples back, a batch at a time, into the
same rows with positioned reads, which add nothing to resident memory.
"""

from __future__ import annotations

import csv
import errno
import io
import json
import math
import mmap
import os
import shutil
import struct
import tempfile
import uuid
from collections.abc import Callable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType
from typing import BinaryIO, TextIO

import numpy as np

from .errors import ConfigError, DataError, FormatError, ShapeError
from .layers import adaptive_avg_pool, pooled_block
from .schema import MODALITIES, TARGET_COLUMNS
from .tensor import Array, as_tensor, seeded_rng

FEATURE_MAGIC = b"EMIF"
CHECKPOINT_MAGIC = b"EMIC"
# each binary format has its own version, so one can change without the other
FEATURE_VERSION = 1
CHECKPOINT_VERSION = 1
# a test row whose six targets all hold this value is excluded from the metric
SENTINEL_TARGET = -1.0

SPLITS = ("train", "val", "test")
MANIFEST_NAME = "manifest.csv"
SIDECAR_NAME = "synth.json"


# -- sample / batch ----------------------------------------------------------


@dataclass(frozen=True)
class Sample:
    """One clip: its id, its feature file, the configured widths and the 6-D target.

    The file is read each time ``features`` is accessed, and nothing read is
    kept: ``features`` maps the file, checks it, fills each absent modality
    with the placeholder and checks every width against ``dims``. It holds
    each modality's [L x d] sequence as a read-only float32 view of the
    mapping, which lasts while a sequence is referenced. Pooling to the
    alignment length happens in :func:`make_batches`.
    """

    id: str
    path: Path
    target: Array
    dims: Mapping[str, int]

    @property
    def features(self) -> Mapping[str, Array]:
        filled, _ = apply_placeholder(read_feature_file(self.path), self.dims)
        for m in MODALITIES:
            if filled[m].shape[1] != self.dims[m]:
                raise ConfigError(
                    f"{self.id}: {m} feature dim {filled[m].shape[1]} "
                    f"!= configured {self.dims[m]}"
                )
        return MappingProxyType(filled)


@dataclass
class Batch:
    """Aligned samples ready for the model.

    The feature arrays are read-only views of rows that the batch's producer
    owns: consecutive rows of a :func:`make_batches` call's blocks, or the
    reused rows that :func:`stream_batches` pools into and a
    :class:`Spill` reads into, which the next batch overwrites. A caller
    that keeps features past the next batch copies them.
    """

    ids: list[str]
    features: dict[str, Array]  # modality -> [batch x align x dim]
    targets: Array  # [batch x 6]

    def __len__(self) -> int:
        return len(self.ids)


class Batches(Sequence):
    """Pooled blocks, read as batches of ``batch_size`` consecutive rows.

    Batch ``i`` is rows ``[i * batch_size, (i + 1) * batch_size)``, the last
    one short, built as read-only views when indexed, so the sequence can be
    iterated any number of times. The blocks, ids and targets are the only
    data held.
    """

    def __init__(self, ids: Array, features: dict[str, Array], targets: Array, batch_size: int):
        self._ids = ids
        self._features = features
        self._targets = targets
        self._starts = range(0, len(ids), batch_size)

    def __len__(self) -> int:
        return len(self._starts)

    def batch(self, i: int) -> Batch:
        """Batch ``i``: read-only views of its rows of the blocks, targets and ids."""
        start = self._starts[i]
        rows = slice(start, start + self._starts.step)
        features = {m: block[rows] for m, block in self._features.items()}
        return Batch(ids=list(self._ids[rows]), features=features, targets=self._targets[rows])

    def __getitem__(self, i: int) -> Batch:
        return self.batch(i)


# -- EMIF feature files -------------------------------------------------------


class _Reader:
    """Exact-length reads over a byte buffer, tracking the current offset."""

    def __init__(self, data: bytes | mmap.mmap, path: str):
        self.data = data
        self.offset = 0
        self.path = path

    def _advance(self, n: int, what: str) -> int:
        """Move past ``n`` bytes and return the offset where they start."""
        if self.offset + n > len(self.data):
            raise FormatError(
                f"{self.path}: truncated while reading {what}", offset=self.offset
            )
        self.offset += n
        return self.offset - n

    def header(self, magic: bytes, version: int) -> None:
        """Check a file's magic (offset 0) and format version (offset 4)."""
        found = self.take(4, "magic")
        if found != magic:
            raise FormatError(f"{self.path}: bad magic {found!r}", offset=0)
        found = self.u16("version")
        if found != version:
            raise FormatError(f"{self.path}: unsupported version {found}", offset=4)

    def take(self, n: int, what: str) -> bytes:
        return self.data[self._advance(n, what) : self.offset]

    def u8(self, what: str) -> int:
        return self.take(1, what)[0]

    def u16(self, what: str) -> int:
        return struct.unpack("<H", self.take(2, what))[0]

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]

    def finite(self, count: int, dtype: str, what: str) -> Array:
        """``count`` values of ``dtype``; a NaN or Inf is an error at its offset.

        The values are a read-only view of the buffer, not a copy.
        """
        dtype = np.dtype(dtype)
        at = self._advance(count * dtype.itemsize, what)
        values = np.frombuffer(self.data, dtype, count, at)
        finite = np.isfinite(values)
        if not finite.all():
            first = int(np.argmin(finite))
            raise FormatError(
                f"{self.path}: non-finite value in {what}",
                offset=at + values.itemsize * first,
            )
        return values


def _file_bytes(path):
    """A file's bytes, mapped read-only; read into memory if it cannot be mapped.

    A mapping shares the page cache: nothing is copied, and the cost does not
    depend on whether the heap has free memory to reuse.
    """
    with open(path, "rb") as fh:
        try:
            return mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        except (OSError, ValueError):  # an empty file, or no mapping left
            return fh.read()


def _replace_file(path, write: Callable[[BinaryIO], None]) -> None:
    """Have ``write`` fill a sibling file, then rename it over ``path``.

    ``write`` streams the bytes into the open file, so no copy of the whole
    payload is built. A reader never sees a partial file, a failed write
    leaves the previous file and no sibling, and a file mapped by
    :func:`_file_bytes` keeps its old bytes instead of being truncated. Each
    write has a sibling of its own, so concurrent writers of one path never
    share one: the last rename wins, and the file holds one writer's bytes.
    """
    path = Path(path)
    partial = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with partial.open("wb") as fh:
            write(fh)
        os.replace(partial, path)
    finally:
        partial.unlink(missing_ok=True)


def replace_text_file(
    path, write: Callable[[TextIO], None], newline: str | None = None
) -> None:
    """:func:`_replace_file` for text: ``write`` fills a UTF-8 stream over the sibling.

    ``newline`` is ``open``'s: None translates each ``"\\n"`` to ``os.linesep``,
    and ``""`` writes line endings as given, as a CSV writer needs.
    """

    def write_bytes(fh: BinaryIO) -> None:
        with io.TextIOWrapper(fh, encoding="utf-8", newline=newline) as text:
            write(text)

    _replace_file(path, write_bytes)


def write_feature_file(path, features: dict[str, Array | None]) -> None:
    """Write one sample's modality blocks; ``None`` marks an absent modality.

    Each block streams into the file as it is checked; a bad block fails the
    write and leaves the previous file.
    """

    def write(fh: BinaryIO) -> None:
        fh.write(FEATURE_MAGIC + struct.pack("<H", FEATURE_VERSION))
        for m in MODALITIES:
            block = features.get(m)
            if block is None:
                fh.write(struct.pack("<BII", 0, 0, 0))
                continue
            block = np.asarray(block)
            if block.ndim != 2 or block.shape[0] < 1:
                raise DataError(f"{m} block must be a non-empty [rows x dim] array")
            with np.errstate(over="ignore"):  # an overflow is reported below
                payload = np.ascontiguousarray(block, dtype="<f4")
            if not np.all(np.isfinite(payload)):
                raise DataError(f"{m} block has values that are not finite as float32")
            fh.write(struct.pack("<BII", 1, *block.shape))
            fh.write(payload)

    _replace_file(path, write)


def read_feature_file(path) -> dict[str, Array | None]:
    """Read modality blocks back; absent stays None.

    Each present block is a read-only float32 [rows x dim] view of the
    file's bytes, which are mapped: neither copied nor widened. The file must
    be replaced, not rewritten in place, while its blocks are in use.
    """
    raw = _file_bytes(path)
    r = _Reader(raw, str(path))
    r.header(FEATURE_MAGIC, FEATURE_VERSION)
    out: dict[str, Array | None] = {}
    for m in MODALITIES:
        present = r.u8(f"{m} present flag")
        rows = r.u32(f"{m} row count")
        dim = r.u32(f"{m} dim")
        if present == 0:
            if rows != 0 or dim != 0:
                raise FormatError(
                    f"{path}: absent {m} block with nonzero extent", offset=r.offset - 8
                )
            out[m] = None
            continue
        if present != 1:
            raise FormatError(
                f"{path}: bad {m} present flag {present}", offset=r.offset - 9
            )
        if rows < 1 or dim < 1:
            raise FormatError(
                f"{path}: present {m} block with empty extent", offset=r.offset - 8
            )
        payload = r.finite(rows * dim, "<f4", f"{m} payload")
        out[m] = payload.reshape(rows, dim)
    if r.offset != len(raw):
        raise FormatError(f"{path}: trailing bytes after last block", offset=r.offset)
    return out


# -- placeholder policy -------------------------------------------------------


def apply_placeholder(
    features: dict[str, Array | None], dims: dict[str, int]
) -> tuple[dict[str, Array], dict[str, bool]]:
    """Replace absent modalities with a single all-zeros row of the right width.

    Present blocks are kept as given. The placeholder is a read-only float32
    row, like a block read from a file. Zeros are inert through the
    mean-pooled projection pipeline. Presence flags are preserved for
    reporting. All modalities absent is an error.
    """
    present = {m: features.get(m) is not None for m in MODALITIES}
    if not any(present.values()):
        raise DataError("sample has no modalities present")
    filled: dict[str, Array] = {}
    for m in MODALITIES:
        block = features.get(m)
        if block is None:
            block = np.zeros((1, dims[m]), dtype=np.float32)
            block.flags.writeable = False
        filled[m] = block
    return filled, present


# -- manifest -----------------------------------------------------------------


@dataclass
class ManifestRow:
    id: str
    split: str
    path: str
    target: Array


def write_manifest(path, rows: list[ManifestRow]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "split", "path", *TARGET_COLUMNS])
        for row in rows:
            writer.writerow(
                [row.id, row.split, row.path, *(repr(float(v)) for v in row.target)]
            )


def load_manifest(path) -> list[ManifestRow]:
    """Parse and validate the manifest: unique ids, known splits, ranged targets."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"manifest not found: {path}")
    rows: list[ManifestRow] = []
    seen: set[str] = set()
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            expected = ["id", "split", "path", *TARGET_COLUMNS]
            if header != expected:
                raise DataError(f"{path}: bad manifest header {header}")
            for lineno, record in enumerate(reader, start=2):
                if len(record) != len(expected):
                    raise DataError(f"{path}:{lineno}: expected {len(expected)} columns")
                sample_id, split, rel = record[0], record[1], record[2]
                if sample_id in seen:
                    raise DataError(f"{path}:{lineno}: duplicate id {sample_id!r}")
                seen.add(sample_id)
                if split not in SPLITS:
                    raise DataError(f"{path}:{lineno}: unknown split {split!r}")
                if "\0" in rel:
                    raise DataError(f"{path}:{lineno}: path holds a NUL byte: {rel!r}")
                try:
                    target = np.array([float(v) for v in record[3:]])
                except ValueError as exc:
                    raise DataError(f"{path}:{lineno}: bad target value: {exc}") from exc
                sentinel = bool(np.all(target == SENTINEL_TARGET))
                in_range = bool(np.all((target >= 0.0) & (target <= 1.0)))
                if not in_range and not (sentinel and split == "test"):
                    raise DataError(
                        f"{path}:{lineno}: targets must lie in [0,1] "
                        "(all -1 allowed on test rows only)"
                    )
                rows.append(ManifestRow(id=sample_id, split=split, path=rel, target=target))
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: manifest is not valid text: {exc}") from exc
        except csv.Error as exc:
            raise DataError(f"{path}:{reader.line_num}: malformed CSV: {exc}") from exc
    return rows


def load_split(
    manifest_path, split: str, dims: dict[str, int]
) -> tuple[Sample, ...]:
    """One split's samples in manifest order, checked against ``dims`` when read.

    Only the manifest is parsed and checked here: a feature file is opened
    when its sample's ``features`` are read (see :class:`Sample`), and a
    relative path is resolved against the manifest's directory.
    """
    manifest_path = Path(manifest_path)
    rows = [r for r in load_manifest(manifest_path) if r.split == split]
    if not rows:
        raise DataError(f"split {split!r} is empty in {manifest_path}")
    dims = MappingProxyType(dict(dims))
    samples: list[Sample] = []
    for row in rows:
        row.target.flags.writeable = False
        path = manifest_path.parent / row.path  # an absolute row.path stays as it is
        samples.append(Sample(id=row.id, path=path, target=row.target, dims=dims))
    return tuple(samples)


# -- batching -----------------------------------------------------------------


def make_batches(
    samples: Sequence[Sample],
    batch_size: int,
    align_len: int,
    shuffle: bool = False,
    rng: np.random.Generator | None = None,
    out: Mapping[str, Array] | None = None,
) -> Batches:
    """Pool samples into one block per modality, read as batches; the final short batch is kept.

    Each modality's block is float64 [N x align x d], and the targets are
    stacked into [N x 6]. The blocks are new, or the first N rows of
    ``out``'s buffers (see :func:`pooled_blocks`), which the caller reuses.
    The samples are read ``batch_size`` at a time, in row order, and each
    batch's sequences, every modality's, are pooled into their rows of the
    blocks by one :func:`adaptive_avg_pool` call, split across every CPU
    the process may use and byte-identical to pooling them one by one; a
    batch's files are unmapped before the next batch's are read. The
    batches are read-only views, so a write through one raises. With
    ``shuffle`` the rows follow one ``rng.permutation``; otherwise manifest
    order is kept.
    """
    if not samples:
        raise DataError("cannot batch an empty split")
    if batch_size < 1:
        raise ConfigError(f"batch size must be >= 1, got {batch_size}")
    if shuffle and rng is None:
        raise ConfigError("shuffle requested without a generator")
    n = len(samples)
    if out is None:
        out = pooled_blocks(n, align_len, samples[0].dims)
    elif any(len(out[m]) < n for m in MODALITIES):
        raise ShapeError(f"pooled rows hold fewer than the {n} samples to pool")
    order = rng.permutation(n) if shuffle else np.arange(n)
    features = {m: out[m][:n] for m in MODALITIES}
    for start in range(0, n, batch_size):
        batch = [samples[k].features for k in order[start : start + batch_size]]
        seqs = [f[m] for m in MODALITIES for f in batch]
        rows = [features[m][start + j] for m in MODALITIES for j in range(len(batch))]
        adaptive_avg_pool(seqs, align_len, out=rows)
        del batch, seqs  # unmap this batch's files before the next batch maps its own
    targets = as_tensor(np.stack([samples[k].target for k in order]))
    ids = np.array([samples[k].id for k in order], dtype=object)
    for a in (*features.values(), targets, ids):
        a.flags.writeable = False
    return Batches(ids, features, targets, batch_size)


def pooled_blocks(n: int, align_len: int, dims: Mapping[str, int]) -> dict[str, Array]:
    """One uninitialised float64 [n x align x d] block per modality."""
    return {m: pooled_block(n, align_len, dims[m]) for m in MODALITIES}


def stream_batches(
    samples: Sequence[Sample],
    batch_size: int,
    align_len: int,
    rows: Mapping[str, Array] | None = None,
) -> Iterator[Batch]:
    """The samples' batches in manifest order, each pooled when it is reached.

    Every ``batch_size`` slice goes through :func:`make_batches` into the
    same ``rows``: buffers of at least ``batch_size`` rows from
    :func:`pooled_blocks`, or new ones sized to the first batch. So each
    batch is overwritten by the next, and one batch of pooled rows is held,
    whatever the split's size.
    """
    for start in range(0, len(samples), batch_size):
        chunk = samples[start : start + batch_size]
        if rows is None:
            rows = pooled_blocks(len(chunk), align_len, chunk[0].dims)
        yield make_batches(chunk, batch_size, align_len, out=rows)[0]


# a write that runs out of room is a data error, as an unwritable dataset is
_NO_SPACE = (errno.ENOSPC, errno.EDQUOT)
# the most buffers one os.pwritev or os.preadv call takes on Linux
_IOV_MAX = 1024


class Spill:
    """A split pooled once into an unnamed file, read back one batch at a time.

    The file is ``tempfile.TemporaryFile(dir=directory)``: on Linux an
    ``O_TMPFILE``, never listed in the directory, gone when it is closed or
    the process dies, and on the directory's file system, not in a ``/tmp``
    that may be RAM. It holds one fixed-size record per manifest sample:
    the sample's pooled rows of each modality in turn. Its blocks are
    allocated first, by ``os.posix_fallocate``; then the samples are pooled
    by :func:`stream_batches` into ``rows``, and each batch is written from
    there by one ``os.pwritev``. Running out of space is a
    :class:`~emireg.errors.DataError`. :meth:`batches` reads each sample's
    record by one ``os.preadv`` into the same ``rows``, so a batch is a
    view of them that the next read overwrites. Positioned reads into one
    reused buffer add nothing to the process's resident memory, where a
    mapping of the file would add every page it touched. The targets,
    [N x 6], and the ids stay in memory.
    """

    def __init__(
        self,
        samples: Sequence[Sample],
        batch_size: int,
        align_len: int,
        rows: Mapping[str, Array],
        directory,
    ):
        self._ids = [s.id for s in samples]
        self._targets = as_tensor(np.stack([s.target for s in samples]))
        self._batch_size = batch_size
        self._rows = rows
        self._record = sum(rows[m][0].nbytes for m in MODALITIES)
        self._file = tempfile.TemporaryFile(dir=directory)
        try:
            # blocks reserved up front make the writes cheaper and a full disk fail first
            os.posix_fallocate(self._file.fileno(), 0, len(samples) * self._record)
            at = 0
            for batch in stream_batches(samples, batch_size, align_len, rows):
                pooled = [batch.features[m][j] for j in range(len(batch)) for m in MODALITIES]
                self._transfer(os.pwritev, pooled, at)
                at += len(batch) * self._record
        except BaseException as exc:
            self._file.close()
            if isinstance(exc, OSError) and exc.errno in _NO_SPACE:
                raise DataError(
                    f"no space left for the pooled split in {directory}: {exc}"
                ) from exc
            raise

    def __len__(self) -> int:
        return len(self._ids)

    def batches(self, order: Sequence[int]) -> Iterator[Batch]:
        """Batches of ``batch_size`` samples, in ``order`` of manifest indices, the last short.

        Each is a read-only view of the rows, overwritten by the next.
        """
        for start in range(0, len(order), self._batch_size):
            picked = order[start : start + self._batch_size]
            for j, k in enumerate(picked):
                rows = [self._rows[m][j] for m in MODALITIES]
                self._transfer(os.preadv, rows, int(k) * self._record)
            features = {m: self._rows[m][: len(picked)] for m in MODALITIES}
            targets = self._targets[picked]
            for a in (*features.values(), targets):
                a.flags.writeable = False
            yield Batch([self._ids[k] for k in picked], features, targets)

    def _transfer(self, op, arrays: list[Array], offset: int) -> None:
        """``os.pwritev`` or ``os.preadv`` the arrays' bytes in turn, from ``offset`` on.

        A short transfer goes on where it stopped; the end of the file is a
        :class:`~emireg.errors.DataError`.
        """
        views = [memoryview(a).cast("B") for a in arrays]
        while views:
            done = op(self._file.fileno(), views[:_IOV_MAX], offset)
            if done == 0:
                raise DataError("the pooled split's file ended before the record")
            offset += done
            while done:
                if done < len(views[0]):
                    views[0] = views[0][done:]
                    break
                done -= len(views.pop(0))

    def close(self) -> None:
        self._file.close()

    def __enter__(self) -> "Spill":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# -- checkpoints ---------------------------------------------------------------


def save_checkpoint(path, tensors: dict[str, Array]) -> None:
    """Write named float64 tensors in insertion order.

    Each record's header and then the tensor's own buffer go straight into
    the file; a C-contiguous float64 tensor is not copied.
    """

    def write(fh: BinaryIO) -> None:
        fh.write(CHECKPOINT_MAGIC + struct.pack("<H", CHECKPOINT_VERSION))
        for name, value in tensors.items():
            encoded = name.encode("utf-8")
            value = np.asarray(value, dtype="<f8", order="C")
            fh.write(struct.pack("<H", len(encoded)) + encoded)
            fh.write(struct.pack(f"<B{value.ndim}I", value.ndim, *value.shape))
            fh.write(value)  # the array's own buffer, not a copy

    _replace_file(path, write)


def load_checkpoint(path) -> dict[str, Array]:
    """Read named tensors until EOF; a malformed record reports its byte offset.

    Each tensor is a read-only float64 view of the file's bytes, which are
    mapped, not copied; the mapping lasts while any tensor is referenced. The
    file must be replaced, not rewritten in place, while its tensors are in
    use, as :func:`save_checkpoint` does.
    """
    raw = _file_bytes(path)
    r = _Reader(raw, str(path))
    r.header(CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
    tensors: dict[str, Array] = {}
    while r.offset < len(raw):
        name_len = r.u16("tensor name length")
        name_at = r.offset
        try:
            name = r.take(name_len, "tensor name").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(
                f"{path}: tensor name is not UTF-8", offset=name_at + exc.start
            ) from exc
        if name in tensors:
            raise FormatError(f"{path}: duplicate tensor name {name!r}", offset=name_at)
        rank = r.u8(f"{name} rank")
        shape_at = r.offset
        shape = tuple(r.u32(f"{name} extent") for _ in range(rank))
        # exact integer products: a fixed-width one could wrap
        payload = r.finite(math.prod(shape), "<f8", f"{name} payload")
        if math.prod(e for e in shape if e) * 8 > np.iinfo(np.intp).max:
            # numpy refuses such a shape even when a zero extent leaves it empty
            raise FormatError(f"{path}: {name} extents {shape} too large", offset=shape_at)
        try:
            tensors[name] = payload.reshape(shape)
        except ValueError as exc:  # the sizes agree, so only the rank can be refused
            raise FormatError(
                f"{path}: {name} rank {rank} is more than numpy supports", offset=shape_at - 1
            ) from exc
    return tensors


# -- synthetic dataset ----------------------------------------------------------


SEQ_LEN_RANGE = (48, 192)  # spans both sides of the 128-row alignment
# a feature file's bytes besides its values: magic, version, one header per block
_FEATURE_HEADER_BYTES = struct.calcsize("<4sH" + "BII" * len(MODALITIES))
JITTER_SCALE = 0.05
SPLIT_FRACTIONS = {"train": 0.7, "val": 0.15}
SYNTHETIC_MODES = ("overlap", "disjoint")

_LATENT_DIM = 6
_MAP_STREAM = 0x51A7
_SAMPLE_STREAM = 0x5A3B


def _modality_latents(mode: str) -> dict[str, list[int]]:
    if mode == "overlap":
        return {m: list(range(_LATENT_DIM)) for m in MODALITIES}
    if mode == "disjoint":
        return {m: [2 * i, 2 * i + 1] for i, m in enumerate(MODALITIES)}
    raise ConfigError(f"unknown synthetic mode {mode!r}, expected one of {SYNTHETIC_MODES}")


def generate_synthetic(
    out_dir,
    n: int,
    dims: dict[str, int],
    seed: int,
    noise: float = 0.0,
    mode: str = "overlap",
) -> Path:
    """Write a fully synthetic dataset: EMIF files, manifest, sidecar JSON.

    Each sample draws a 6-D latent; targets are its sigmoid squashed to [0,1]
    plus optional Gaussian noise. Every modality emits a feature sequence
    that linearly encodes its assigned latent subset (all six in ``overlap``
    mode, two disjoint ones per modality in ``disjoint`` mode) plus
    temporal jitter that is exactly zero-mean over the sequence, so temporal
    mean pooling recovers the encoded signal. Byte-identical for equal
    arguments. The files are written into a hidden sibling directory and
    moved into ``out_dir`` once all are written, so a call that fails leaves
    ``out_dir`` as it was. A dataset whose feature files cannot fit in the
    free space of ``out_dir``'s file system, even at the shortest sequences,
    is refused before anything is written.
    """
    if n < 2:
        raise ConfigError(f"need at least 2 samples, got {n}")
    if n > np.iinfo(np.int64).max:
        raise ConfigError("n is too large to represent as a 64-bit int")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    if not (math.isfinite(noise) and noise >= 0):
        raise ConfigError(f"noise must be finite and >= 0, got {noise}")
    if set(dims) != set(MODALITIES):
        raise ConfigError(f"dims must cover {MODALITIES}, got {sorted(dims)}")
    assignment = _modality_latents(mode)
    for m in MODALITIES:
        if dims[m] < len(assignment[m]):
            raise ConfigError(
                f"{m} dim {dims[m]} too small to encode {len(assignment[m])} latents"
            )
        # numpy refuses an array of more than intp's maximum bytes; a sample's
        # [L x d] block is wider than the [d x k] map, since k <= 6 < L
        if SEQ_LEN_RANGE[1] * dims[m] * 8 > np.iinfo(np.intp).max:
            raise ConfigError(
                f"{m} sample block [{SEQ_LEN_RANGE[1]} x {dims[m]}] is too large to represent"
            )

    out_dir = Path(out_dir)
    # every file holds its header and at least the shortest sequence per modality
    least = n * (_FEATURE_HEADER_BYTES + SEQ_LEN_RANGE[0] * sum(dims.values()) * 4)
    existing = next(p for p in (out_dir.absolute(), *out_dir.absolute().parents) if p.exists())
    free = shutil.disk_usage(existing).free
    if least > free:
        raise ConfigError(
            f"{n} samples need at least {least} bytes, but {existing} has {free} free"
        )
    out_dir.parent.mkdir(parents=True, exist_ok=True)
    staged = Path(tempfile.mkdtemp(prefix=f".{out_dir.name}.", dir=out_dir.parent))
    try:
        _write_synthetic(staged, n, dims, seed, noise, mode, assignment)
        _move_into(staged, out_dir)
    finally:
        shutil.rmtree(staged, ignore_errors=True)
    return out_dir / MANIFEST_NAME


def _move_into(staged: Path, out_dir: Path) -> None:
    """Rename every file of the tree ``staged`` to its place under ``out_dir``."""
    out_dir.mkdir(exist_ok=True)
    for src in sorted(staged.rglob("*")):  # a directory sorts before its files
        dst = out_dir / src.relative_to(staged)
        if src.is_dir():
            dst.mkdir(parents=True, exist_ok=True)
        else:
            os.replace(src, dst)


def _write_synthetic(out_dir, n, dims, seed, noise, mode, assignment) -> None:
    """Write :func:`generate_synthetic`'s dataset into the empty ``out_dir``."""
    maps = {}
    for i, m in enumerate(MODALITIES):
        map_rng = seeded_rng(seed, _MAP_STREAM, i)
        k = len(assignment[m])
        maps[m] = map_rng.normal(0.0, 1.0, size=(dims[m], k)) / np.sqrt(k)
    (out_dir / "features").mkdir()

    rng = seeded_rng(seed, _SAMPLE_STREAM)
    n_train = int(n * SPLIT_FRACTIONS["train"])
    n_val = int(n * SPLIT_FRACTIONS["val"])
    rows: list[ManifestRow] = []
    for i in range(n):
        latent = rng.normal(0.0, 1.0, size=_LATENT_DIM)
        squashed = 1.0 / (1.0 + np.exp(-latent))
        target = squashed.copy()
        if noise > 0:
            target = target + rng.normal(0.0, noise, size=_LATENT_DIM)
        target = np.clip(target, 0.0, 1.0)
        blocks: dict[str, Array] = {}
        for m in MODALITIES:
            length = int(rng.integers(SEQ_LEN_RANGE[0], SEQ_LEN_RANGE[1] + 1))
            base = maps[m] @ squashed[assignment[m]]
            jitter = rng.normal(0.0, JITTER_SCALE, size=(length, dims[m]))
            jitter -= jitter.mean(axis=0)
            blocks[m] = base[None, :] + jitter
        sample_id = f"syn{i:06d}"
        rel = f"features/{sample_id}.emif"
        write_feature_file(out_dir / rel, blocks)
        split = "train" if i < n_train else ("val" if i < n_train + n_val else "test")
        rows.append(ManifestRow(id=sample_id, split=split, path=rel, target=target))

    write_manifest(out_dir / MANIFEST_NAME, rows)
    sidecar = {
        "n": n,
        "dims": {m: dims[m] for m in MODALITIES},
        "seed": seed,
        "noise": noise,
        "mode": mode,
        "latent_assignment": assignment,
        "seq_len_range": list(SEQ_LEN_RANGE),
        "jitter_scale": JITTER_SCALE,
        "split_counts": {
            "train": n_train,
            "val": n_val,
            "test": n - n_train - n_val,
        },
    }
    with open(out_dir / SIDECAR_NAME, "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")
