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
``features`` are read. ``make_batches`` resamples every sample to the
alignment length into one read-only float64 ``[N x align x d]`` block per
modality and stacks the targets into ``[N x 6]``. It reads the samples one
batch at a time and pools each batch's sequences into that batch's rows of
the blocks, in one pooling call per batch that runs on every CPU the process
may use and gives the bytes of serial pooling, so at most one batch of raw
sequences is mapped at a time. It returns a :class:`Batches` sequence whose
every batch is a read-only view of consecutive rows of those blocks.

A split's pooled blocks are its only copy, held by the :class:`Batches` made
from them, which refer to no sample. Shuffled, the rows are in the order of
one ``rng.permutation``: ``make_batches(shuffle=True)`` pools in that order,
and :meth:`Batches.shuffle` rearranges the rows in place into the order of
the next permutation, moving one sample's rows at a time through one row of
scratch. The trainer shuffles its train batches once per epoch, so a run
holds no second copy of the split and no per-batch buffer.
"""

from __future__ import annotations

import csv
import io
import json
import math
import mmap
import os
import shutil
import struct
import tempfile
import uuid
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType
from typing import BinaryIO, TextIO

import numpy as np

from .errors import ConfigError, DataError, FormatError
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

    The arrays are read-only views of consecutive rows of the pooled blocks,
    so a :meth:`Batches.shuffle` after the batch was built changes them.
    """

    ids: list[str]
    features: dict[str, Array]  # modality -> [batch x align x dim]
    targets: Array  # [batch x 6]

    def __len__(self) -> int:
        return len(self.ids)


class Batches(Sequence):
    """A split's pooled blocks, read as batches of ``batch_size`` consecutive rows.

    Row ``k`` of every block, of the targets and of the ids holds manifest
    sample ``order[k]``. Batch ``i`` is rows ``[i * batch_size, (i + 1) *
    batch_size)``, the last one short, built as read-only views when
    indexed, so the sequence can be iterated any number of times. The
    blocks, ids and targets are the only data held; :meth:`shuffle`
    rearranges their rows in place.
    """

    def __init__(
        self,
        ids: Array,
        features: dict[str, Array],
        targets: Array,
        batch_size: int,
        order: Array,
    ):
        self._ids = ids
        self._features = features
        self._targets = targets
        self._starts = range(0, len(ids), batch_size)
        self._order = order

    def __len__(self) -> int:
        return len(self._starts)

    @property
    def n_samples(self) -> int:
        """How many samples the batches cover, over all of them."""
        return len(self._ids)

    def shuffle(self, rng: np.random.Generator) -> None:
        """Rearrange the rows in place into the order of one ``rng.permutation``.

        Afterwards row ``k`` holds manifest sample ``order[k]``, whatever
        order the rows held before: the rows ``make_batches(shuffle=True)``
        pools with the same generator. Each array's rows move along the
        permutation's cycles through one row of scratch, so the call
        allocates no more than one sample's rows of one block at a time.
        """
        order = rng.permutation(self.n_samples)
        row_of = np.empty_like(order)
        row_of[self._order] = np.arange(self.n_samples)
        source = row_of[order]  # the row whose sample moves to row k
        for a in (*self._features.values(), self._targets, self._ids):
            _gather_rows(a, source)
        self._order = order

    def batch(self, i: int) -> Batch:
        """Batch ``i``: read-only views of its rows of the blocks, targets and ids."""
        start = self._starts[i]
        rows = slice(start, start + self._starts.step)
        features = {m: block[rows] for m, block in self._features.items()}
        return Batch(ids=list(self._ids[rows]), features=features, targets=self._targets[rows])

    def __getitem__(self, i: int) -> Batch:
        return self.batch(i)


def _gather_rows(a: Array, source: Array) -> None:
    """Set ``a[k] = a[source[k]]`` for every row ``k`` in place; ``source`` is a permutation.

    Each cycle of ``source`` is followed from its first row, which waits in
    a one-row scratch copy until the cycle closes. ``a`` is writable only
    during the call.
    """
    done = np.zeros(len(source), dtype=np.bool_)
    a.flags.writeable = True
    try:
        for start in range(len(source)):
            if done[start] or source[start] == start:
                continue
            scratch = a[start : start + 1].copy()
            k = start
            while source[k] != start:
                a[k] = a[source[k]]
                done[k] = True
                k = source[k]
            a[k] = scratch[0]
            done[k] = True
    finally:
        a.flags.writeable = False


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
) -> Batches:
    """Pool samples into one block per modality, read as batches; the final short batch is kept.

    Each modality's block is float64 [N x align x d], and the targets are
    stacked into [N x 6]. The samples are read ``batch_size`` at a time, in
    row order, and each batch's sequences, every modality's, are pooled into
    their rows of the blocks by one :func:`adaptive_avg_pool` call, split
    across every CPU the process may use and byte-identical to pooling them
    one by one; a batch's files are unmapped before the next batch's are
    read. All
    arrays are marked read-only, so a write through a batch view raises
    instead of changing later epochs. With ``shuffle`` the rows follow one
    ``rng.permutation``, the order :meth:`Batches.shuffle` draws; otherwise
    manifest order is kept.
    """
    if not samples:
        raise DataError("cannot batch an empty split")
    if batch_size < 1:
        raise ConfigError(f"batch size must be >= 1, got {batch_size}")
    if shuffle and rng is None:
        raise ConfigError("shuffle requested without a generator")
    n = len(samples)
    order = rng.permutation(n) if shuffle else np.arange(n)
    features = {m: pooled_block(n, align_len, samples[0].dims[m]) for m in MODALITIES}
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
    return Batches(ids, features, targets, batch_size, order)


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
    ``out_dir`` as it was.
    """
    if n < 2:
        raise ConfigError(f"need at least 2 samples, got {n}")
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
