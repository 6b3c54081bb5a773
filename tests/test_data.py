import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

import emireg.data as data_module
from emireg.data import (
    MANIFEST_NAME,
    SIDECAR_NAME,
    ManifestRow,
    apply_placeholder,
    generate_synthetic,
    load_checkpoint,
    load_manifest,
    load_split,
    make_batches,
    placeholder_count,
    read_feature_file,
    save_checkpoint,
    write_feature_file,
    write_manifest,
)
from emireg.errors import ConfigError, DataError, FormatError
from emireg.model import MODALITIES

from oracles import dataset_mean_features, least_squares_mean_pcc

DIMS = {"visual": 8, "audio": 7, "text": 6}


def random_blocks(rng, absent=()):
    blocks = {}
    for m in MODALITIES:
        if m in absent:
            blocks[m] = None
        else:
            rows = int(rng.integers(1, 40))
            blocks[m] = rng.normal(size=(rows, DIMS[m]))
    return blocks


class TestFeatureFile:
    def test_roundtrip_bit_exact(self, rng, tmp_path):
        for i in range(50):
            blocks = random_blocks(rng)
            path = tmp_path / f"s{i}.emif"
            write_feature_file(path, blocks)
            back = read_feature_file(path)
            for m in MODALITIES:
                # storage is 32-bit; the payload must survive exactly
                assert np.array_equal(
                    back[m].astype(np.float32), blocks[m].astype(np.float32)
                )

    def test_absent_block_roundtrip(self, rng, tmp_path):
        blocks = random_blocks(rng, absent=("text",))
        path = tmp_path / "s.emif"
        write_feature_file(path, blocks)
        back = read_feature_file(path)
        assert back["text"] is None
        assert back["visual"] is not None

    def test_bad_magic_offset_zero(self, tmp_path):
        path = tmp_path / "bad.emif"
        path.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(FormatError) as err:
            read_feature_file(path)
        assert err.value.offset == 0

    def test_bad_version_offset_four(self, rng, tmp_path):
        path = tmp_path / "v.emif"
        write_feature_file(path, random_blocks(rng))
        raw = bytearray(path.read_bytes())
        raw[4:6] = (99).to_bytes(2, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError) as err:
            read_feature_file(path)
        assert err.value.offset == 4

    def test_truncation_reports_payload_offset(self, tmp_path):
        blocks = {
            "visual": np.ones((2, 3)),
            "audio": np.ones((1, 2)),
            "text": np.ones((1, 2)),
        }
        path = tmp_path / "t.emif"
        write_feature_file(path, blocks)
        # visual payload starts after magic(4) + version(2) + block header(9)
        path.write_bytes(path.read_bytes()[:20])
        with pytest.raises(FormatError) as err:
            read_feature_file(path)
        assert err.value.offset == 15

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "h.emif"
        path.write_bytes(b"EMIF\x01")
        with pytest.raises(FormatError) as err:
            read_feature_file(path)
        assert err.value.offset == 4

    def test_trailing_bytes_rejected(self, rng, tmp_path):
        path = tmp_path / "x.emif"
        write_feature_file(path, random_blocks(rng))
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError):
            read_feature_file(path)

    def test_rejects_non_finite(self, tmp_path):
        blocks = {"visual": np.array([[np.nan]]), "audio": None, "text": None}
        with pytest.raises(DataError):
            write_feature_file(tmp_path / "n.emif", blocks)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_reader_rejects_non_finite_payload(self, tmp_path, bad):
        path = tmp_path / "n.emif"
        write_feature_file(
            path, {"visual": np.ones((2, 3)), "audio": np.ones((4, 2)), "text": None}
        )
        raw = bytearray(path.read_bytes())
        # header 6 bytes, visual block 9 + 24 bytes, audio block header 9 bytes
        audio_payload = 6 + 9 + 2 * 3 * 4 + 9
        raw[audio_payload + 4 * 5 : audio_payload + 4 * 6] = np.float32(bad).tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="non-finite value in audio") as err:
            read_feature_file(path)
        assert err.value.offset == audio_payload + 4 * 5


class TestPlaceholder:
    def test_absent_text_gets_zero_row(self, rng):
        blocks = random_blocks(rng, absent=("text",))
        filled, present = apply_placeholder(blocks, DIMS)
        assert filled["text"].shape == (1, DIMS["text"])
        assert np.all(filled["text"] == 0.0)
        assert present == {"visual": True, "audio": True, "text": False}

    def test_all_present_is_identity(self, rng):
        blocks = random_blocks(rng)
        filled, present = apply_placeholder(blocks, DIMS)
        for m in MODALITIES:
            assert np.array_equal(filled[m], blocks[m])
        assert all(present.values())

    def test_all_absent_rejected(self):
        with pytest.raises(DataError):
            apply_placeholder({m: None for m in MODALITIES}, DIMS)

    def test_placeholder_count(self, rng, tmp_path):
        root = tmp_path / "ds"
        root.mkdir()
        rows = []
        absent_plan = [(), ("text",), ("text", "audio"), ()]
        for i, absent in enumerate(absent_plan):
            rel = f"s{i}.emif"
            write_feature_file(root / rel, random_blocks(rng, absent=absent))
            rows.append(
                ManifestRow(id=f"s{i}", split="train", path=rel, target=np.full(6, 0.5))
            )
        write_manifest(root / MANIFEST_NAME, rows)
        samples = load_split(root / MANIFEST_NAME, "train", DIMS)
        assert placeholder_count(samples) == {"visual": 0, "audio": 1, "text": 2}


class TestManifest:
    def _rows(self, n=4, split="train"):
        return [
            ManifestRow(
                id=f"s{i}", split=split, path=f"s{i}.emif", target=np.full(6, 0.25)
            )
            for i in range(n)
        ]

    def test_roundtrip(self, tmp_path):
        path = tmp_path / MANIFEST_NAME
        rows = self._rows()
        write_manifest(path, rows)
        back = load_manifest(path)
        assert [r.id for r in back] == [r.id for r in rows]
        assert all(np.array_equal(a.target, b.target) for a, b in zip(back, rows))

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / MANIFEST_NAME
        rows = self._rows()
        rows[2].id = rows[0].id
        write_manifest(path, rows)
        with pytest.raises(DataError, match="duplicate"):
            load_manifest(path)

    def test_unknown_split_rejected(self, tmp_path):
        path = tmp_path / MANIFEST_NAME
        rows = self._rows()
        rows[1].split = "dev"
        write_manifest(path, rows)
        with pytest.raises(DataError, match="split"):
            load_manifest(path)

    def test_target_out_of_range_rejected(self, tmp_path):
        path = tmp_path / MANIFEST_NAME
        rows = self._rows()
        rows[0].target = np.array([0.1, 0.2, 0.3, 0.4, 0.5, 1.5])
        write_manifest(path, rows)
        with pytest.raises(DataError, match="targets"):
            load_manifest(path)

    def test_sentinel_on_test_rows_only(self, tmp_path):
        path = tmp_path / MANIFEST_NAME
        rows = self._rows(split="test")
        rows[0].target = np.full(6, -1.0)
        write_manifest(path, rows)
        assert load_manifest(path)[0].target[0] == -1.0
        rows = self._rows(split="val")
        rows[0].target = np.full(6, -1.0)
        write_manifest(path, rows)
        with pytest.raises(DataError):
            load_manifest(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / MANIFEST_NAME
        path.write_text("id,split,file,adm,amu,det,emp,exc,joy\n")
        with pytest.raises(DataError, match="header"):
            load_manifest(path)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DataError):
            load_manifest(tmp_path / "nope.csv")


def _make_dataset(rng, root, n, split="train"):
    root.mkdir(parents=True, exist_ok=True)
    rows = []
    for i in range(n):
        rel = f"s{i}.emif"
        write_feature_file(root / rel, random_blocks(rng))
        rows.append(
            ManifestRow(
                id=f"s{i}",
                split=split,
                path=rel,
                target=rng.uniform(size=6),
            )
        )
    write_manifest(root / MANIFEST_NAME, rows)
    return load_split(root / MANIFEST_NAME, split, DIMS)


class TestBatching:
    def test_batch_sizes(self, rng, tmp_path):
        samples = _make_dataset(rng, tmp_path / "ds", 100)
        batches = make_batches(samples, 32, align_len=16)
        assert [len(b) for b in batches] == [32, 32, 32, 4]

    def test_partition_covers_every_sample_once(self, rng, tmp_path):
        samples = _make_dataset(rng, tmp_path / "ds", 50)
        batches = make_batches(
            samples, 8, align_len=16, shuffle=True, rng=np.random.default_rng(5)
        )
        ids = [i for b in batches for i in b.ids]
        assert sorted(ids) == sorted(s.id for s in samples)
        assert len(ids) == len(set(ids))

    def test_same_seed_same_order(self, rng, tmp_path):
        samples = _make_dataset(rng, tmp_path / "ds", 40)
        a = make_batches(samples, 8, 16, shuffle=True, rng=np.random.default_rng(3))
        b = make_batches(samples, 8, 16, shuffle=True, rng=np.random.default_rng(3))
        assert [x.ids for x in a] == [x.ids for x in b]

    def test_no_shuffle_keeps_manifest_order(self, rng, tmp_path):
        samples = _make_dataset(rng, tmp_path / "ds", 20)
        batches = make_batches(samples, 6, 16)
        ids = [i for b in batches for i in b.ids]
        assert ids == [s.id for s in samples]

    def test_stacked_shapes(self, rng, tmp_path):
        samples = _make_dataset(rng, tmp_path / "ds", 10)
        batch = make_batches(samples, 10, align_len=16)[0]
        for m in MODALITIES:
            assert batch.features[m].shape == (10, 16, DIMS[m])
        assert batch.targets.shape == (10, 6)

    def test_load_split_is_immutable(self, rng, tmp_path):
        samples = _make_dataset(rng, tmp_path / "ds", 3)
        assert isinstance(samples, tuple)
        with pytest.raises(TypeError):
            samples[0] = samples[1]

    def test_unshuffled_batches_are_read_only_views_of_the_block(self, rng, tmp_path):
        samples = _make_dataset(rng, tmp_path / "ds", 10)
        blocks, targets = samples.pooled(16)
        for batch in make_batches(samples, 4, align_len=16):
            for m in MODALITIES:
                assert np.shares_memory(batch.features[m], blocks[m])
                assert not batch.features[m].flags.writeable
            assert np.shares_memory(batch.targets, targets)
            with pytest.raises(ValueError):
                batch.features["audio"][0, 0, 0] = 1.0

    def test_shuffled_rows_match_unshuffled_rows(self, rng, tmp_path):
        samples = _make_dataset(rng, tmp_path / "ds", 23)
        plain = make_batches(samples, 5, align_len=16)
        by_id = {}
        for batch in plain:
            for i, sample_id in enumerate(batch.ids):
                by_id[sample_id] = (
                    {m: batch.features[m][i] for m in MODALITIES},
                    batch.targets[i],
                )
        shuffled = make_batches(
            samples, 5, align_len=16, shuffle=True, rng=np.random.default_rng(8)
        )
        assert [i for b in shuffled for i in b.ids] != [s.id for s in samples]
        for batch in shuffled:
            for i, sample_id in enumerate(batch.ids):
                features, target = by_id[sample_id]
                for m in MODALITIES:
                    assert batch.features[m][i].tobytes() == features[m].tobytes()
                assert batch.targets[i].tobytes() == target.tobytes()

    def test_split_is_pooled_once(self, rng, tmp_path, monkeypatch):
        samples = _make_dataset(rng, tmp_path / "ds", 7)
        calls = []
        real_pool = data_module.adaptive_avg_pool

        def counting_pool(*args, **kwargs):
            calls.append(1)
            return real_pool(*args, **kwargs)

        monkeypatch.setattr(data_module, "adaptive_avg_pool", counting_pool)
        make_batches(samples, 3, align_len=16)
        assert len(calls) == 7 * len(MODALITIES)
        make_batches(samples, 3, 16, shuffle=True, rng=np.random.default_rng(1))
        make_batches(samples, 4, align_len=16)
        assert len(calls) == 7 * len(MODALITIES)
        make_batches(samples, 3, align_len=12)  # a new length pools again
        assert len(calls) == 14 * len(MODALITIES)

    def test_plain_list_batches_uncached(self, rng, tmp_path, monkeypatch):
        samples = _make_dataset(rng, tmp_path / "ds", 9)
        expected = make_batches(samples, 4, align_len=16)
        calls = []
        real_pool = data_module.adaptive_avg_pool

        def counting_pool(*args, **kwargs):
            calls.append(1)
            return real_pool(*args, **kwargs)

        monkeypatch.setattr(data_module, "adaptive_avg_pool", counting_pool)
        for _ in range(2):
            got = make_batches(list(samples), 4, align_len=16)
            assert [b.ids for b in got] == [b.ids for b in expected]
            for a, b in zip(got, expected):
                for m in MODALITIES:
                    assert a.features[m].tobytes() == b.features[m].tobytes()
                assert a.targets.tobytes() == b.targets.tobytes()
        assert len(calls) == 2 * 9 * len(MODALITIES)

    def test_batch_features_match_per_sample_pooling(self, rng, tmp_path):
        from emireg.layers import adaptive_avg_pool

        samples = _make_dataset(rng, tmp_path / "ds", 4)
        batch = make_batches(samples, 4, align_len=12)[0]
        for i, s in enumerate(samples):
            for m in MODALITIES:
                assert np.array_equal(
                    batch.features[m][i], adaptive_avg_pool(s.features[m], 12)
                )


class TestCheckpoint:
    def test_roundtrip(self, rng, tmp_path):
        tensors = {
            "a.weight": rng.normal(size=(3, 4)),
            "a.bias": rng.normal(size=3),
            "ema/a.weight": rng.normal(size=(3, 4)),
            "scalar": np.array(2.5),
        }
        path = tmp_path / "m.emic"
        save_checkpoint(path, tensors)
        back = load_checkpoint(path)
        assert list(back) == list(tensors)
        for name in tensors:
            assert np.array_equal(back[name], tensors[name])

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.emic"
        path.write_bytes(b"EMIF\x01\x00")
        with pytest.raises(FormatError) as err:
            load_checkpoint(path)
        assert err.value.offset == 0

    def test_truncated_record(self, rng, tmp_path):
        path = tmp_path / "m.emic"
        save_checkpoint(path, {"w": rng.normal(size=(4, 4))})
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 8])
        with pytest.raises(FormatError) as err:
            load_checkpoint(path)
        assert err.value.offset is not None


    def test_non_utf8_name_rejected(self, rng, tmp_path):
        path = tmp_path / "m.emic"
        save_checkpoint(path, {"w": rng.normal(size=2)})
        raw = bytearray(path.read_bytes())
        raw[8] = 0xFF  # the name's first byte, after magic, version and length
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="not UTF-8") as err:
            load_checkpoint(path)
        assert err.value.offset == 8

    def test_duplicate_name_rejected(self, rng, tmp_path):
        path = tmp_path / "m.emic"
        save_checkpoint(path, {"w": rng.normal(size=2)})
        raw = path.read_bytes()
        path.write_bytes(raw + raw[6:])  # the same record twice
        with pytest.raises(FormatError, match="duplicate tensor name 'w'") as err:
            load_checkpoint(path)
        assert err.value.offset == len(raw) + 2


def _tree_digest(root: Path) -> dict:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class TestSyntheticGenerator:
    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            generate_synthetic(out, n=20, dims=DIMS, seed=9, noise=0.1, mode="overlap")
        assert _tree_digest(a) == _tree_digest(b)

    def test_different_seed_differs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        generate_synthetic(a, n=10, dims=DIMS, seed=1)
        generate_synthetic(b, n=10, dims=DIMS, seed=2)
        assert _tree_digest(a) != _tree_digest(b)

    def test_sidecar_records_assignment(self, tmp_path):
        generate_synthetic(tmp_path / "d", n=10, dims=DIMS, seed=0, mode="disjoint")
        sidecar = json.loads((tmp_path / "d" / SIDECAR_NAME).read_text())
        assert sidecar["mode"] == "disjoint"
        assert sidecar["latent_assignment"] == {
            "visual": [0, 1],
            "audio": [2, 3],
            "text": [4, 5],
        }
        assert sidecar["dims"] == DIMS

    def test_split_sizes(self, tmp_path):
        generate_synthetic(tmp_path / "d", n=40, dims=DIMS, seed=0)
        rows = load_manifest(tmp_path / "d" / MANIFEST_NAME)
        counts = {s: sum(1 for r in rows if r.split == s) for s in ("train", "val", "test")}
        assert counts == {"train": 28, "val": 6, "test": 6}

    def test_noiseless_overlap_is_linearly_solvable(self, tmp_path):
        # mean features encode the squashed latents exactly, so a plain
        # least-squares oracle must essentially saturate the metric
        root = tmp_path / "d"
        generate_synthetic(root, n=200, dims=DIMS, seed=7, noise=0.0, mode="overlap")
        train = load_split(root / MANIFEST_NAME, "train", DIMS)
        val = load_split(root / MANIFEST_NAME, "val", DIMS)
        p_mean = least_squares_mean_pcc(
            dataset_mean_features(train),
            np.stack([s.target for s in train]),
            dataset_mean_features(val),
            np.stack([s.target for s in val]),
        )
        assert p_mean > 0.99

    def test_disjoint_mode_concat_oracle_beats_average_oracle(self, tmp_path):
        # with 2-wide branch embeddings, averaging collapses six independent
        # signals into two dimensions; concatenation keeps all six
        root = tmp_path / "d"
        generate_synthetic(root, n=300, dims=DIMS, seed=13, noise=0.0, mode="disjoint")
        train = load_split(root / MANIFEST_NAME, "train", DIMS)
        val = load_split(root / MANIFEST_NAME, "val", DIMS)
        proj_rng = np.random.default_rng(99)
        projections = {m: proj_rng.normal(size=(2, DIMS[m])) for m in MODALITIES}

        def embeddings(samples):
            per_modality = [
                np.stack([projections[m] @ s.features[m].mean(axis=0) for s in samples])
                for m in MODALITIES
            ]
            concat = np.concatenate(per_modality, axis=1)
            average = sum(per_modality) / 3.0
            return concat, average

        train_concat, train_avg = embeddings(train)
        val_concat, val_avg = embeddings(val)
        targets_train = np.stack([s.target for s in train])
        targets_val = np.stack([s.target for s in val])
        p_concat = least_squares_mean_pcc(train_concat, targets_train, val_concat, targets_val)
        p_avg = least_squares_mean_pcc(train_avg, targets_train, val_avg, targets_val)
        assert p_concat >= p_avg
        assert p_concat > 0.99  # disjoint union still spans all six latents

    def test_sequence_lengths_span_alignment(self, tmp_path):
        root = tmp_path / "d"
        generate_synthetic(root, n=60, dims=DIMS, seed=3)
        samples = load_split(root / MANIFEST_NAME, "train", DIMS)
        lengths = [s.features[m].shape[0] for s in samples for m in MODALITIES]
        assert min(lengths) < 128 < max(lengths)

    def test_invalid_mode(self, tmp_path):
        with pytest.raises(ConfigError):
            generate_synthetic(tmp_path / "d", n=10, dims=DIMS, seed=0, mode="partial")

    def test_too_few_samples(self, tmp_path):
        with pytest.raises(ConfigError):
            generate_synthetic(tmp_path / "d", n=1, dims=DIMS, seed=0)
