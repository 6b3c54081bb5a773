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
tensor names and extents that overrun the file with a
:class:`~emireg.errors.FormatError` carrying the byte offset. They map a
file read-only instead of copying its bytes into memory. Feature files and
checkpoints are written to a temporary file beside the target and renamed
over it, so a failed write leaves the previous file intact and a mapping of
the previous file keeps its bytes.

The manifest is a CSV with header ``id,split,path,adm,amu,det,emp,exc,joy``;
paths are resolved relative to the manifest's directory. Test rows may carry
the sentinel target ``SENTINEL_TARGET`` (-1) in all six columns, marking them
metric-excluded.

Batching pools once per call: ``make_batches`` resamples every sample to the
alignment length into one read-only float64 ``[N x align x d]`` block per
modality, in one pooling call per block that runs on every CPU the process
may use and gives the bytes of serial pooling, and stacks the targets into
``[N x 6]``. It returns a
:class:`Batches` sequence that builds each batch when it is indexed: a slice
of those blocks (views, in manifest order) or a sample-by-sample copy per
modality (shuffled), so a shuffled epoch holds one batch's copy, not a second
copy of the split. :meth:`Batches.batch` copies into fresh buffers or into
buffers the caller owns; the trainer copies every shuffled batch of a run into
one set of them.

The pooled blocks are held only by the :class:`Batches` made from them, which
refer to no sample. A caller that keeps only the manifest-order
:class:`Batches` lets the raw sequences and their file mappings go once they
are pooled, and draws each epoch's order from it with
:meth:`Batches.shuffled`: one ``rng.permutation`` over the rows, the same
one ``make_batches(shuffle=True)`` draws.
"""

from __future__ import annotations

import csv
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
from typing import BinaryIO

import numpy as np

from .errors import ConfigError, DataError, FormatError
from .layers import adaptive_avg_pool
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
    """One clip: three raw feature sequences, presence flags, and the 6-D target.

    ``features`` holds each modality's [L x d] sequence as read (placeholder
    applied): read-only float32 when loaded from an EMIF file. Pooling to
    the alignment length happens in :func:`make_batches`.
    """

    id: str
    features: Mapping[str, Array]
    target: Array
    present: dict[str, bool]


@dataclass
class Batch:
    """Aligned samples ready for the model.

    In manifest order the arrays are read-only views of the pooled blocks;
    shuffled, they are copies, made when :class:`Batches` builds the batch,
    into fresh buffers or into the caller's.
    """

    ids: list[str]
    features: dict[str, Array]  # modality -> [batch x align x dim]
    targets: Array  # [batch x 6]

    def __len__(self) -> int:
        return len(self.ids)


class Batches(Sequence):
    """The batches of one :func:`make_batches` call, each built when indexed.

    ``rows[i]`` selects batch ``i``'s samples: a slice, which gives views of
    the pooled blocks, or an index array, whose samples are copied one by
    one (:meth:`batch`).
    Indexing again rebuilds the same batch, so the sequence can be iterated
    any number of times. The pooled blocks, ids and targets are the only
    data held; :meth:`shuffled` shares them with the sequence it returns.
    """

    def __init__(
        self, ids: Array, features: dict[str, Array], targets: Array, rows: list
    ):
        self._ids = ids
        self._features = features
        self._targets = targets
        self._rows = rows

    def __len__(self) -> int:
        return len(self._rows)

    @property
    def n_samples(self) -> int:
        """How many samples the batches cover, over all of them."""
        return len(self._ids)

    def shuffled(self, rng: np.random.Generator) -> "Batches":
        """The same batch sizes over rows in the order of one ``rng.permutation``.

        Batch ``i`` takes the permuted positions that ``rows[i]`` selects, so
        on a manifest-order sequence it takes ``order[start:start + size]``.
        """
        order = rng.permutation(self.n_samples)
        rows = [order[r] for r in self._rows]
        return Batches(self._ids, self._features, self._targets, rows)

    def batch(self, i: int, out: dict[str, Array] | None = None) -> Batch:
        """Batch ``i``; a shuffled batch's features are copied into ``out``.

        In manifest order the features are views of the pooled blocks and
        ``out`` is not used. Shuffled, the batch's samples are copied one by
        one into the leading rows of ``out[m]`` (a float64 buffer of at least
        the batch's rows, with the block's other extents), or of fresh
        buffers when ``out`` is None, and the features are views of those
        rows: building the next batch into the same buffers overwrites them,
        and nothing else of a buffer is written.
        """
        rows = self._rows[i]
        features = {}
        for m, block in self._features.items():
            if isinstance(rows, slice):
                features[m] = block[rows]
                continue
            if out is None:
                rows_out = np.empty((len(rows), *block.shape[1:]), dtype=block.dtype)
            else:
                rows_out = out[m][: len(rows)]
            for j, r in enumerate(rows):
                rows_out[j] = block[r]
            features[m] = rows_out
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
    with open(path, "w", newline="") as fh:
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
    with open(path, newline="") as fh:
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
    """Load one split's samples in manifest order, applying the placeholder rule."""
    manifest_path = Path(manifest_path)
    rows = [r for r in load_manifest(manifest_path) if r.split == split]
    if not rows:
        raise DataError(f"split {split!r} is empty in {manifest_path}")
    base = manifest_path.parent
    samples: list[Sample] = []
    for row in rows:
        feature_path = Path(row.path)
        if not feature_path.is_absolute():
            feature_path = base / feature_path
        features = read_feature_file(feature_path)
        filled, present = apply_placeholder(features, dims)
        for m in MODALITIES:
            if filled[m].shape[1] != dims[m]:
                raise ConfigError(
                    f"{row.id}: {m} feature dim {filled[m].shape[1]} "
                    f"!= configured {dims[m]}"
                )
        row.target.flags.writeable = False
        samples.append(
            Sample(
                id=row.id,
                features=MappingProxyType(filled),
                target=row.target,
                present=present,
            )
        )
    return tuple(samples)


# -- batching -----------------------------------------------------------------


def make_batches(
    samples: Sequence[Sample],
    batch_size: int,
    align_len: int,
    shuffle: bool = False,
    rng: np.random.Generator | None = None,
) -> Batches:
    """Pool samples and partition them into batches; the final short batch is kept.

    Each modality's sequences are pooled in one :func:`adaptive_avg_pool`
    call into one [N x align x d] block, split across every CPU the process
    may use and byte-identical to pooling them one by one; the targets are
    stacked into [N x 6]. All are marked read-only, so a write through a
    batch view raises instead of changing later epochs. With
    ``shuffle`` the order comes from ``rng`` (one permutation per call, drawn
    by :meth:`Batches.shuffled`); otherwise manifest order is preserved. Each
    batch is built when the returned :class:`Batches` is indexed.
    """
    if not samples:
        raise DataError("cannot batch an empty split")
    if batch_size < 1:
        raise ConfigError(f"batch size must be >= 1, got {batch_size}")
    if shuffle and rng is None:
        raise ConfigError("shuffle requested without a generator")
    features: dict[str, Array] = {}
    for m in MODALITIES:
        block = adaptive_avg_pool([s.features[m] for s in samples], align_len)
        block.flags.writeable = False
        features[m] = block
    targets = as_tensor(np.stack([s.target for s in samples]))
    targets.flags.writeable = False
    ids = np.array([s.id for s in samples], dtype=object)
    starts = range(0, len(samples), batch_size)
    rows = [slice(start, start + batch_size) for start in starts]
    batches = Batches(ids, features, targets, rows)
    return batches.shuffled(rng) if shuffle else batches


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
    """Read named tensors until EOF; truncation reports its byte offset."""
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
        tensors[name] = payload.reshape(shape).copy()
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
    with open(out_dir / SIDECAR_NAME, "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")
