"""Feature container format, manifests, batching, and the synthetic dataset.

Binary layouts (all little-endian):

``EMIF`` feature files
    magic ``EMIF`` | version u16 | three modality blocks in fixed order
    (visual, audio, text), each: present u8 | rows u32 | dim u32 |
    rows*dim float32 values. Features are stored as 32-bit and widened to
    64-bit on load; a write/read round-trip is bit-exact at 32 bits.

``EMIC`` checkpoint files
    magic ``EMIC`` | version u16 | named tensor records until EOF, each:
    name length u16 | UTF-8 name | rank u8 | extents u32 each |
    float64 values. Names are unique within a file.

Readers reject non-finite feature values, undecodable or repeated tensor
names with a :class:`~emireg.errors.FormatError` carrying the byte offset.

The manifest is a CSV with header ``id,split,path,adm,amu,det,emp,exc,joy``;
paths are resolved relative to the manifest's directory. Test rows may carry
the sentinel target -1 in all six columns, marking them metric-excluded.

Batching pools each split once: the first ``make_batches`` call on a
:class:`Split` resamples every sample to the alignment length into one
read-only float64 ``[N x align x d]`` block per modality and stacks the
targets into ``[N x 6]``. Batches are then slices of those blocks (views,
in manifest order) or one gather per modality (copies, shuffled).
"""

from __future__ import annotations

import csv
import io
import json
import struct
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, FormatError
from .layers import adaptive_avg_pool
from .model import MODALITIES
from .tensor import Array, as_tensor

FEATURE_MAGIC = b"EMIF"
CHECKPOINT_MAGIC = b"EMIC"
FORMAT_VERSION = 1

TARGET_COLUMNS = ("adm", "amu", "det", "emp", "exc", "joy")
SPLITS = ("train", "val", "test")
MANIFEST_NAME = "manifest.csv"
SIDECAR_NAME = "synth.json"

N_TARGETS = len(TARGET_COLUMNS)


# -- sample / batch ----------------------------------------------------------


@dataclass(frozen=True)
class Sample:
    """One clip: three raw feature sequences, presence flags, and the 6-D target.

    ``features`` holds each modality's [L x d] sequence as read (placeholder
    applied); pooling to the alignment length happens per split, in
    :func:`make_batches`.
    """

    id: str
    features: dict[str, Array]
    target: Array
    present: dict[str, bool]

    @property
    def is_sentinel(self) -> bool:
        return bool(np.all(self.target == -1.0))


class Split(tuple):
    """The samples of one :func:`load_split` call, in manifest order.

    Immutable, so the pooled blocks cached on it always belong to exactly
    these samples. The cache is keyed by alignment length.
    """

    def __new__(cls, samples):
        self = super().__new__(cls, samples)
        self._pooled = {}
        return self

    def pooled(self, align_len: int) -> tuple[dict[str, Array], Array]:
        """This split's read-only pooled feature blocks and stacked targets."""
        cached = self._pooled.get(align_len)
        if cached is None:
            cached = self._pooled[align_len] = _pool_samples(self, align_len)
        return cached


def _pool_samples(
    samples: Sequence[Sample], align_len: int
) -> tuple[dict[str, Array], Array]:
    """Pool every sample into one [N x align x d] block per modality.

    Also stacks the targets into [N x 6]. All arrays are marked read-only,
    so a write through a batch view raises instead of changing later epochs.
    """
    features: dict[str, Array] = {}
    for m in MODALITIES:
        dim = samples[0].features[m].shape[1]
        block = np.empty((len(samples), align_len, dim))
        for i, s in enumerate(samples):
            adaptive_avg_pool(s.features[m], align_len, out=block[i])
        block.flags.writeable = False
        features[m] = block
    targets = as_tensor(np.stack([s.target for s in samples]))
    targets.flags.writeable = False
    return features, targets


@dataclass
class Batch:
    """Aligned samples ready for the model.

    In manifest order the arrays are read-only views of the split's pooled
    block; shuffled, they are fresh copies.
    """

    ids: list[str]
    features: dict[str, Array]  # modality -> [batch x align x dim]
    targets: Array  # [batch x 6]

    def __len__(self) -> int:
        return len(self.ids)


# -- EMIF feature files -------------------------------------------------------


class _Reader:
    """Exact-length reads over a byte buffer, tracking the current offset."""

    def __init__(self, data: bytes, path: str):
        self.data = data
        self.offset = 0
        self.path = path

    def take(self, n: int, what: str) -> bytes:
        if self.offset + n > len(self.data):
            raise FormatError(
                f"{self.path}: truncated while reading {what}", offset=self.offset
            )
        chunk = self.data[self.offset : self.offset + n]
        self.offset += n
        return chunk

    def u8(self, what: str) -> int:
        return self.take(1, what)[0]

    def u16(self, what: str) -> int:
        return struct.unpack("<H", self.take(2, what))[0]

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]


def write_feature_file(path, features: dict[str, Array | None]) -> None:
    """Write one sample's modality blocks; ``None`` marks an absent modality."""
    buf = io.BytesIO()
    buf.write(FEATURE_MAGIC)
    buf.write(struct.pack("<H", FORMAT_VERSION))
    for m in MODALITIES:
        block = features.get(m)
        if block is None:
            buf.write(struct.pack("<BII", 0, 0, 0))
            continue
        block = np.asarray(block)
        if block.ndim != 2 or block.shape[0] < 1:
            raise DataError(f"{m} block must be a non-empty [rows x dim] array")
        if not np.all(np.isfinite(block)):
            raise DataError(f"{m} block contains non-finite values")
        rows, dim = block.shape
        buf.write(struct.pack("<BII", 1, rows, dim))
        buf.write(np.ascontiguousarray(block, dtype="<f4").tobytes())
    Path(path).write_bytes(buf.getvalue())


def read_feature_file(path) -> dict[str, Array | None]:
    """Read modality blocks back; values widen to float64, absent stays None."""
    raw = Path(path).read_bytes()
    r = _Reader(raw, str(path))
    magic = r.take(4, "magic")
    if magic != FEATURE_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}", offset=0)
    version = r.u16("version")
    if version != FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported version {version}", offset=4)
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
        payload = np.frombuffer(r.take(rows * dim * 4, f"{m} payload"), dtype="<f4")
        finite = np.isfinite(payload)
        if not finite.all():
            first = int(np.argmin(finite))
            raise FormatError(
                f"{path}: non-finite value in {m} payload",
                offset=r.offset - payload.nbytes + 4 * first,
            )
        out[m] = payload.reshape(rows, dim).astype(np.float64)
    if r.offset != len(raw):
        raise FormatError(f"{path}: trailing bytes after last block", offset=r.offset)
    return out


# -- placeholder policy -------------------------------------------------------


def apply_placeholder(
    features: dict[str, Array | None], dims: dict[str, int]
) -> tuple[dict[str, Array], dict[str, bool]]:
    """Replace absent modalities with a single all-zeros row of the right width.

    Zeros are inert through the mean-pooled projection pipeline. Presence
    flags are preserved for reporting. All modalities absent is an error.
    """
    present = {m: features.get(m) is not None for m in MODALITIES}
    if not any(present.values()):
        raise DataError("sample has no modalities present")
    filled: dict[str, Array] = {}
    for m in MODALITIES:
        block = features.get(m)
        filled[m] = (
            np.zeros((1, dims[m])) if block is None else as_tensor(block)
        )
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
            try:
                target = np.array([float(v) for v in record[3:]])
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: bad target value: {exc}") from exc
            sentinel = bool(np.all(target == -1.0))
            in_range = bool(np.all((target >= 0.0) & (target <= 1.0)))
            if not in_range and not (sentinel and split == "test"):
                raise DataError(
                    f"{path}:{lineno}: targets must lie in [0,1] "
                    "(all -1 allowed on test rows only)"
                )
            rows.append(ManifestRow(id=sample_id, split=split, path=rel, target=target))
    return rows


def load_split(manifest_path, split: str, dims: dict[str, int]) -> Split:
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
        samples.append(
            Sample(id=row.id, features=filled, target=row.target, present=present)
        )
    return Split(samples)


def placeholder_count(samples: Sequence[Sample]) -> dict[str, int]:
    """How many samples had each modality absent (placeholder applied)."""
    return {m: sum(1 for s in samples if not s.present[m]) for m in MODALITIES}


# -- batching -----------------------------------------------------------------


def make_batches(
    samples: Sequence[Sample],
    batch_size: int,
    align_len: int,
    shuffle: bool = False,
    rng: np.random.Generator | None = None,
) -> list[Batch]:
    """Partition samples into batches; the final short batch is kept.

    With ``shuffle`` the order comes from ``rng`` (one permutation per call);
    otherwise manifest order is preserved. A :class:`Split` is pooled once
    per alignment length and reused; any other sequence is pooled per call.
    """
    if not samples:
        raise DataError("cannot batch an empty split")
    if batch_size < 1:
        raise ConfigError(f"batch size must be >= 1, got {batch_size}")
    if shuffle and rng is None:
        raise ConfigError("shuffle requested without a generator")
    if isinstance(samples, Split):
        features, targets = samples.pooled(align_len)
    else:
        features, targets = _pool_samples(samples, align_len)
    ids = np.array([s.id for s in samples], dtype=object)
    order = rng.permutation(len(samples)) if shuffle else None
    batches: list[Batch] = []
    for start in range(0, len(samples), batch_size):
        # a slice gives views of the blocks, an index array one gather each
        rows = (
            slice(start, start + batch_size)
            if order is None
            else order[start : start + batch_size]
        )
        batches.append(
            Batch(
                ids=list(ids[rows]),
                features={m: block[rows] for m, block in features.items()},
                targets=targets[rows],
            )
        )
    return batches


# -- checkpoints ---------------------------------------------------------------


def save_checkpoint(path, tensors: dict[str, Array]) -> None:
    """Write named float64 tensors in insertion order."""
    buf = io.BytesIO()
    buf.write(CHECKPOINT_MAGIC)
    buf.write(struct.pack("<H", FORMAT_VERSION))
    for name, value in tensors.items():
        encoded = name.encode("utf-8")
        value = np.asarray(value, dtype=np.float64)
        buf.write(struct.pack("<H", len(encoded)))
        buf.write(encoded)
        buf.write(struct.pack("<B", value.ndim))
        for extent in value.shape:
            buf.write(struct.pack("<I", extent))
        buf.write(np.ascontiguousarray(value, dtype="<f8").tobytes())
    Path(path).write_bytes(buf.getvalue())


def load_checkpoint(path) -> dict[str, Array]:
    """Read named tensors until EOF; truncation reports its byte offset."""
    raw = Path(path).read_bytes()
    r = _Reader(raw, str(path))
    magic = r.take(4, "magic")
    if magic != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}", offset=0)
    version = r.u16("version")
    if version != FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported version {version}", offset=4)
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
        shape = tuple(r.u32(f"{name} extent") for _ in range(rank))
        count = int(np.prod(shape)) if shape else 1
        payload = r.take(count * 8, f"{name} payload")
        tensors[name] = np.frombuffer(payload, dtype="<f8").reshape(shape).copy()
    return tensors


# -- synthetic dataset ----------------------------------------------------------


SEQ_LEN_RANGE = (48, 192)  # spans both sides of the 128-row alignment
JITTER_SCALE = 0.05
SPLIT_FRACTIONS = {"train": 0.7, "val": 0.15}

_LATENT_DIM = 6
_MAP_STREAM = 0x51A7
_SAMPLE_STREAM = 0x5A3B


def _modality_latents(mode: str) -> dict[str, list[int]]:
    if mode == "overlap":
        return {m: list(range(_LATENT_DIM)) for m in MODALITIES}
    if mode == "disjoint":
        return {m: [2 * i, 2 * i + 1] for i, m in enumerate(MODALITIES)}
    raise ConfigError(f"unknown synthetic mode {mode!r} (overlap or disjoint)")


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
    arguments.
    """
    if n < 2:
        raise ConfigError(f"need at least 2 samples, got {n}")
    if set(dims) != set(MODALITIES):
        raise ConfigError(f"dims must cover {MODALITIES}, got {sorted(dims)}")
    assignment = _modality_latents(mode)
    for m in MODALITIES:
        if dims[m] < len(assignment[m]):
            raise ConfigError(
                f"{m} dim {dims[m]} too small to encode {len(assignment[m])} latents"
            )
    out_dir = Path(out_dir)
    features_dir = out_dir / "features"
    features_dir.mkdir(parents=True, exist_ok=True)

    maps = {}
    for i, m in enumerate(MODALITIES):
        map_rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([seed, _MAP_STREAM, i]))
        )
        k = len(assignment[m])
        maps[m] = map_rng.normal(0.0, 1.0, size=(dims[m], k)) / np.sqrt(k)

    rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence([seed, _SAMPLE_STREAM]))
    )
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

    manifest_path = out_dir / MANIFEST_NAME
    write_manifest(manifest_path, rows)
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
    return manifest_path
