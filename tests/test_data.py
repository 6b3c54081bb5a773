import gc
import hashlib
import io
import json
import struct
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import emireg.data as data_module
from emireg.data import (
    MANIFEST_NAME,
    SIDECAR_NAME,
    Batches,
    ManifestRow,
    apply_placeholder,
    generate_synthetic,
    load_checkpoint,
    load_manifest,
    load_split,
    make_batches,
    read_feature_file,
    save_checkpoint,
    write_feature_file,
    write_manifest,
)
from emireg.errors import ConfigError, DataError, FormatError
from emireg.schema import MODALITIES

from oracles import dataset_mean_features, least_squares_mean_pcc
from support import count_thread_starts, traced_memory, use_cpus

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

    @pytest.mark.parametrize("bad", [1e39, -1e39])
    def test_rejects_values_beyond_float32(self, tmp_path, bad):
        path = tmp_path / "n.emif"
        blocks = {"visual": np.ones((2, 3)), "audio": np.ones((4, 2)), "text": None}
        blocks["audio"][1, 1] = bad
        with pytest.raises(DataError, match="audio block"):
            write_feature_file(path, blocks)
        assert not path.exists()
        # the largest float32 is finite and round-trips
        blocks["audio"][1, 1] = np.finfo(np.float32).max
        write_feature_file(path, blocks)
        assert read_feature_file(path)["audio"][1, 1] == np.finfo(np.float32).max

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


    def test_read_maps_the_file_instead_of_copying_it(self, rng, tmp_path):
        path = tmp_path / "big.emif"
        write_feature_file(
            path, {"visual": rng.normal(size=(256, 512)), "audio": None, "text": None}
        )
        read = []
        _, peak = traced_memory(lambda: read.append(read_feature_file(path)))
        back = read[0]
        # the finite check's bool mask is a quarter of the payload
        assert peak < path.stat().st_size // 2
        assert not back["visual"].flags.writeable

    def test_read_without_a_mapping(self, rng, tmp_path, monkeypatch):
        blocks = random_blocks(rng, absent=("audio",))
        path = tmp_path / "s.emif"
        write_feature_file(path, blocks)

        def no_mapping(*args, **kwargs):
            raise OSError(12, "Cannot allocate memory")

        monkeypatch.setattr(data_module.mmap, "mmap", no_mapping)
        back = read_feature_file(path)
        assert back["audio"] is None
        for m in ("visual", "text"):
            assert back[m].tobytes() == blocks[m].astype("<f4").tobytes()

    def test_empty_file_is_format_error(self, tmp_path):
        path = tmp_path / "empty.emif"
        path.touch()
        with pytest.raises(FormatError) as err:
            read_feature_file(path)
        assert err.value.offset == 0

    def test_rewrite_leaves_blocks_already_read(self, rng, tmp_path):
        # the file is replaced, not truncated, so a mapping keeps its bytes
        path = tmp_path / "s.emif"
        write_feature_file(path, random_blocks(rng))
        back = read_feature_file(path)
        before = {m: back[m].tobytes() for m in MODALITIES}
        write_feature_file(path, {"visual": np.ones((1, 1)), "audio": None, "text": None})
        assert {m: back[m].tobytes() for m in MODALITIES} == before
        assert [p.name for p in tmp_path.iterdir()] == [path.name]


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

    def test_placeholder_row_is_read_only_float32(self, rng):
        filled, _ = apply_placeholder(random_blocks(rng, absent=("audio",)), DIMS)
        assert filled["audio"].dtype == np.float32
        assert not filled["audio"].flags.writeable


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

    def test_load_split_reads_only_the_manifest(self, rng, tmp_path, monkeypatch):
        # a feature file is read when its sample's features are, each time
        root = tmp_path / "ds"
        _make_dataset(rng, root, 4)
        raw = bytearray((root / "s2.emif").read_bytes())
        raw[15:19] = np.float32(np.nan).tobytes()  # the first visual value
        (root / "s2.emif").write_bytes(bytes(raw))
        reads = []
        real_read = data_module.read_feature_file
        monkeypatch.setattr(
            data_module, "read_feature_file", lambda path: reads.append(path) or real_read(path)
        )
        samples = load_split(root / MANIFEST_NAME, "train", DIMS)
        assert reads == []
        assert samples[0].features["visual"] is not samples[0].features["visual"]
        assert reads == [root / "s0.emif"] * 2
        with pytest.raises(FormatError, match="non-finite value in visual payload") as err:
            make_batches(samples, 2, align_len=16)
        assert err.value.offset == 15

    def test_loaded_features_stay_float32(self, rng, tmp_path):
        samples = _make_dataset(rng, tmp_path / "ds", 5)
        for s in samples:
            for m in MODALITIES:
                rows, dim = s.features[m].shape
                assert s.features[m].dtype == np.float32
                assert s.features[m].nbytes == rows * dim * 4

    def test_loaded_samples_are_read_only(self, rng, tmp_path):
        # a write would change the samples under a caller that pools them later
        root = tmp_path / "ds"
        root.mkdir()
        write_feature_file(root / "s0.emif", random_blocks(rng, absent=("text",)))
        row = ManifestRow(id="s0", split="train", path="s0.emif", target=np.full(6, 0.5))
        write_manifest(root / MANIFEST_NAME, [row])
        sample = load_split(root / MANIFEST_NAME, "train", DIMS)[0]
        for m in ("visual", "text"):  # a present block and the placeholder
            with pytest.raises(ValueError):
                sample.features[m][0, 0] = 1.0
        with pytest.raises(ValueError):
            sample.target[0] = 1.0
        with pytest.raises(TypeError):
            sample.features["visual"] = np.zeros((1, DIMS["visual"]))

    def test_unshuffled_batches_are_read_only_views_of_the_block(self, rng, tmp_path):
        samples = _make_dataset(rng, tmp_path / "ds", 10)
        batches = make_batches(samples, 4, align_len=16)
        blocks = {m: batches[0].features[m].base for m in MODALITIES}
        targets = batches[0].targets.base
        for m in MODALITIES:
            assert blocks[m].shape == (10, 16, DIMS[m])
        assert targets.shape == (10, 6)
        for batch in batches:
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

    def test_shuffled_draws_the_order_of_a_shuffled_call(self, rng, tmp_path):
        samples = _make_dataset(rng, tmp_path / "ds", 23)
        drawn = make_batches(samples, 5, align_len=16)
        drawn.shuffle(np.random.default_rng(8))
        called = make_batches(
            samples, 5, align_len=16, shuffle=True, rng=np.random.default_rng(8)
        )
        assert [b.ids for b in drawn] == [b.ids for b in called]
        for a, b in zip(drawn, called):
            for m in MODALITIES:
                assert a.features[m].tobytes() == b.features[m].tobytes()
            assert a.targets.tobytes() == b.targets.tobytes()

    def test_shuffle_puts_manifest_sample_order_k_in_row_k(self, rng, tmp_path):
        samples = _make_dataset(rng, tmp_path / "ds", 20)
        whole = make_batches(samples, 20, 64)[0]  # manifest order, for reference
        batches = make_batches(samples, 8, 64)
        blocks = {m: batches[0].features[m].base for m in MODALITIES}
        for seed in (1, 2):  # the second shuffle starts from the first one's rows
            order = np.random.default_rng(seed).permutation(20)
            batches.shuffle(np.random.default_rng(seed))
            assert [i for b in batches for i in b.ids] == [samples[k].id for k in order]
            for m in MODALITIES:
                assert blocks[m].tobytes() == whole.features[m][order].tobytes()
                assert all(np.shares_memory(b.features[m], blocks[m]) for b in batches)
            assert np.concatenate([b.targets for b in batches]).tobytes() == (
                whole.targets[order].tobytes()
            )
        # one row of one block at a time is the only scratch
        one_sample = 64 * sum(DIMS.values()) * 8
        _, peak = traced_memory(lambda: batches.shuffle(np.random.default_rng(3)))
        assert peak < one_sample, peak
        with pytest.raises(ValueError):
            batches[0].features["visual"][0, 0, 0] = 1.0

    def test_batches_hold_no_sample(self, rng, tmp_path):
        samples = _make_dataset(rng, tmp_path / "ds", 9)
        refs = [weakref.ref(s) for s in samples]
        batches = make_batches(samples, 4, align_len=16)
        blocks = {m: batches[0].features[m].base for m in MODALITIES}
        del samples
        gc.collect()
        assert all(ref() is None for ref in refs)
        batches.shuffle(np.random.default_rng(0))
        assert len(batches) == 3 and batches.n_samples == 9
        for m in MODALITIES:
            assert np.shares_memory(batches[0].features[m], blocks[m])

    def test_pooling_maps_one_batch_of_files_at_a_time(self, rng, tmp_path, monkeypatch):
        samples = _make_dataset(rng, tmp_path / "ds", 11)
        real_read = data_module.read_feature_file
        reads = []  # per file read, weak references to the blocks it returned
        alive = []  # at each read, how many earlier files still have a live block

        def tracking_read(path):
            blocks = real_read(path)
            gc.collect()
            alive.append(sum(any(r() is not None for r in refs) for refs in reads))
            reads.append([weakref.ref(b) for b in blocks.values() if b is not None])
            return blocks

        monkeypatch.setattr(data_module, "read_feature_file", tracking_read)
        for shuffle in (False, True):
            reads.clear()
            alive.clear()
            make_batches(samples, 4, 16, shuffle=shuffle, rng=np.random.default_rng(0))
            # a batch's earlier files are mapped at each read, and no other batch's
            assert alive == [k % 4 for k in range(11)]
            gc.collect()
            assert all(r() is None for refs in reads for r in refs)

    def test_plain_list_batches_uncached(self, rng, tmp_path, monkeypatch):
        """Every call pools each sample once per modality, on a tuple or a list.

        ``load_split`` gives a tuple; a list of the same samples batches to
        the same bytes, and neither is pooled from an earlier call's blocks.
        """
        split = _make_dataset(rng, tmp_path / "ds", 9)
        expected = make_batches(split, 4, align_len=16)
        calls = []
        real_pool = data_module.adaptive_avg_pool

        def counting_pool(seqs, *args, **kwargs):
            calls.append(len(seqs))  # sequences pooled, not calls
            return real_pool(seqs, *args, **kwargs)

        monkeypatch.setattr(data_module, "adaptive_avg_pool", counting_pool)
        for n_calls, samples in enumerate([split, list(split), split], start=1):
            got = make_batches(samples, 4, align_len=16)
            assert sum(calls) == n_calls * 9 * len(MODALITIES)
            assert [b.ids for b in got] == [b.ids for b in expected]
            for a, b in zip(got, expected):
                for m in MODALITIES:
                    assert a.features[m].tobytes() == b.features[m].tobytes()
                assert a.targets.tobytes() == b.targets.tobytes()
        make_batches(split, 4, 16, shuffle=True, rng=np.random.default_rng(1))
        assert sum(calls) == 4 * 9 * len(MODALITIES)
        make_batches(split, 4, align_len=12)  # another length pools the same way
        assert sum(calls) == 5 * 9 * len(MODALITIES)

    @pytest.mark.parametrize("shuffle", [False, True])
    def test_batches_index_and_iterate_again_alike(self, rng, tmp_path, shuffle):
        samples = _make_dataset(rng, tmp_path / "ds", 11)
        batches = make_batches(
            samples, 4, 16, shuffle=shuffle, rng=np.random.default_rng(2)
        )
        assert isinstance(batches, Batches)
        assert len(batches) == 3
        first, second = list(batches), list(batches)
        indexed = [batches[i] for i in range(len(batches))]
        assert batches[-1].ids == indexed[2].ids
        with pytest.raises(IndexError):
            batches[3]
        for a, b, c in zip(first, second, indexed):
            assert a.ids == b.ids == c.ids
            for m in MODALITIES:
                assert a.features[m].tobytes() == b.features[m].tobytes()
                assert a.features[m].tobytes() == c.features[m].tobytes()
            assert a.targets.tobytes() == b.targets.tobytes() == c.targets.tobytes()

    def test_shuffled_call_gathers_no_batch_up_front(self, rng, tmp_path):
        samples = _make_dataset(rng, tmp_path / "ds", 40)
        make_batches(samples, 8, align_len=16)  # warm numpy's own caches
        batch_bytes = sum(8 * 16 * d * 8 for d in DIMS.values())
        # the call pools: one float64 block per modality and the stacked targets
        pooled_bytes = 5 * batch_bytes + 40 * 6 * 8
        # and reads one batch of files at a time: their array and dict objects
        _, read_bytes = traced_memory(lambda: [s.features for s in samples[:8]])
        made = []
        _, peak = traced_memory(
            lambda: made.append(
                make_batches(samples, 8, 16, shuffle=True, rng=np.random.default_rng(4))
            )
        )
        assert len(made[0]) == 5
        assert peak < pooled_bytes + read_bytes + batch_bytes, peak

    def test_shuffled_batches_are_views_of_consecutive_rows(self, rng, tmp_path):
        samples = _make_dataset(rng, tmp_path / "ds", 20)
        whole = make_batches(samples, 20, 16)[0]  # views of the pooled blocks
        where = {sample_id: k for k, sample_id in enumerate(whole.ids)}
        batches = make_batches(samples, 8, 16, shuffle=True, rng=np.random.default_rng(9))
        blocks = {m: batches[0].features[m].base for m in MODALITIES}
        sizes = []
        for i, batch in enumerate(batches):
            sizes.append(len(batch))
            rows = [where[sample_id] for sample_id in batch.ids]
            assert batch.targets.tobytes() == whole.targets[rows].tobytes()
            for m in MODALITIES:
                assert batch.features[m].tobytes() == whole.features[m][rows].tobytes()
                assert batch.features[m].base is blocks[m]
                assert batch.features[m].tobytes() == blocks[m][8 * i : 8 * i + len(batch)].tobytes()
                assert not batch.features[m].flags.writeable
        assert sizes == [8, 8, 4]  # the final short batch included

    def test_pooling_threads_enter_no_traced_span(self, rng, tmp_path, monkeypatch):
        """The benchmark's tracer wraps pooling and keeps one span stack per process.

        A wrapped call made from a pooling thread would interleave spans and
        raise TraceError, so each modality must be one span, opened by the
        calling thread inside the span around it.
        """
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        from spans import Tracer

        samples = _make_dataset(rng, tmp_path / "ds", 9)
        use_cpus(monkeypatch, 2)
        started = count_thread_starts(monkeypatch)
        tracer = Tracer("emireg")
        tracer.wrap_function("adaptive_avg_pool", "layers.adaptive_avg_pool")
        try:
            with tracer.span("test") as outer:
                make_batches(samples, 4, align_len=16)
        finally:
            tracer.restore()
        # one pooling call, with one helper, per batch of 4, 4 and 1 samples
        assert len(started) == 3
        pools = [s for s in tracer.spans if s.name == "layers.adaptive_avg_pool"]
        assert len(pools) == 3
        assert all(s.parent == outer for s in pools)

    def test_batch_features_match_per_sample_pooling(self, rng, tmp_path):
        from emireg.layers import adaptive_avg_pool

        samples = _make_dataset(rng, tmp_path / "ds", 4)
        batch = make_batches(samples, 4, align_len=12)[0]
        for i, s in enumerate(samples):
            for m in MODALITIES:
                assert np.array_equal(
                    batch.features[m][i], adaptive_avg_pool([s.features[m]], 12)[0]
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

    def test_each_format_has_its_own_version(self, rng, tmp_path, monkeypatch):
        # a checkpoint version bump leaves feature files, and their reader, alone
        monkeypatch.setattr(data_module, "CHECKPOINT_VERSION", 2)
        ckpt = tmp_path / "m.emic"
        save_checkpoint(ckpt, {"w": rng.normal(size=2)})
        assert ckpt.read_bytes()[4:6] == struct.pack("<H", 2)
        emif = tmp_path / "s.emif"
        write_feature_file(emif, random_blocks(rng))
        assert emif.read_bytes()[4:6] == struct.pack("<H", data_module.FEATURE_VERSION)
        assert read_feature_file(emif)["visual"] is not None

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.emic"
        path.write_bytes(b"EMIF\x01\x00")
        with pytest.raises(FormatError) as err:
            load_checkpoint(path)
        assert err.value.offset == 0

    def test_empty_file_is_format_error(self, tmp_path):
        path = tmp_path / "m.emic"
        path.touch()
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected(self, tmp_path, bad):
        path = tmp_path / "m.emic"
        save_checkpoint(path, {"a": np.ones(2), "w": np.ones((2, 3))})
        raw = bytearray(path.read_bytes())
        # header 6, "a" record 2 + 1 + 1 + 4 + 16, "w" record header 2 + 1 + 1 + 8
        w_payload = 6 + 24 + 12
        raw[w_payload + 8 * 4 : w_payload + 8 * 5] = np.float64(bad).tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="non-finite value in w payload") as err:
            load_checkpoint(path)
        assert err.value.offset == w_payload + 8 * 4

    def test_duplicate_name_rejected(self, rng, tmp_path):
        path = tmp_path / "m.emic"
        save_checkpoint(path, {"w": rng.normal(size=2)})
        raw = path.read_bytes()
        path.write_bytes(raw + raw[6:])  # the same record twice
        with pytest.raises(FormatError, match="duplicate tensor name 'w'") as err:
            load_checkpoint(path)
        assert err.value.offset == len(raw) + 2

    @pytest.mark.parametrize("shape", [(2**32 - 1, 2**32 - 1), (2**31, 2**31, 4)])
    def test_extents_past_int64_are_truncation(self, tmp_path, shape):
        # the element count is 2**64 - 2**33 + 1 or 2**64: a fixed-width
        # product wraps to a negative count or to zero
        header = data_module.CHECKPOINT_MAGIC + struct.pack("<H", data_module.CHECKPOINT_VERSION)
        record = struct.pack(f"<H1sB{len(shape)}I", 1, b"w", len(shape), *shape)
        path = tmp_path / "m.emic"
        path.write_bytes(header + record + bytes(16))
        with pytest.raises(FormatError, match="truncated while reading w payload") as err:
            load_checkpoint(path)
        assert err.value.offset == len(header) + len(record)

    def test_empty_tensor_with_oversized_extents_rejected(self, tmp_path):
        header = data_module.CHECKPOINT_MAGIC + struct.pack("<H", data_module.CHECKPOINT_VERSION)
        record = struct.pack("<H1sB3I", 1, b"w", 3, 0, 2**31, 2**30)
        path = tmp_path / "m.emic"
        path.write_bytes(header + record)
        with pytest.raises(FormatError, match="too large") as err:
            load_checkpoint(path)
        assert err.value.offset == len(header) + 4

    def test_failed_write_keeps_previous_file(self, rng, tmp_path, monkeypatch):
        path = tmp_path / "best.emic"
        save_checkpoint(path, {"w": rng.normal(size=(4, 4))})
        before = path.read_bytes()

        class TornFile(io.FileIO):
            """Takes half of a write, then runs out of space."""

            def write(self, payload):
                payload = bytes(payload)
                super().write(payload[: len(payload) // 2])
                raise OSError("no space left on device")

        real_open = Path.open

        def torn_open(self, mode="r", *args, **kwargs):
            if "w" not in mode:
                return real_open(self, mode, *args, **kwargs)
            return TornFile(self, "w")

        monkeypatch.setattr(Path, "open", torn_open)
        with pytest.raises(OSError, match="no space"):
            save_checkpoint(path, {"w": rng.normal(size=(4, 4))})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_concurrent_writers_of_one_path_each_replace_it_whole(self, tmp_path):
        path = tmp_path / "last.emic"
        tensors = [{"w": np.full((64, 64), float(k))} for k in range(2)]
        start = threading.Barrier(2)
        errors = []

        def writer(k):
            try:
                start.wait(timeout=60)
                for _ in range(40):
                    save_checkpoint(path, tensors[k])
            except Exception as exc:  # collected, so the test reports it
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(k,)) for k in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        back = load_checkpoint(path)
        assert any(np.array_equal(back["w"], want["w"]) for want in tensors)
        assert [p.name for p in tmp_path.iterdir()] == [path.name]


def _feature_bytes_and_extents(tmp_path) -> tuple[bytes, list[int]]:
    """A valid feature file and the byte offsets of its u32 extents."""
    rng = np.random.default_rng(0)
    path = tmp_path / "valid.emif"
    blocks = {"visual": rng.normal(size=(3, 8)), "audio": None, "text": rng.normal(size=(2, 6))}
    write_feature_file(path, blocks)
    raw = path.read_bytes()
    extents, offset = [], 6
    for _ in MODALITIES:
        rows, dim = struct.unpack_from("<II", raw, offset + 1)
        extents += [offset + 1, offset + 5]
        offset += 9 + rows * dim * 4
    return raw, extents


def _checkpoint_bytes_and_extents(tmp_path) -> tuple[bytes, list[int]]:
    """A valid checkpoint and the byte offsets of its u32 extents.

    It holds an empty tensor with large extents, so that one changed extent
    can push the element count past 2**63.
    """
    tensors = {
        "w": np.arange(6.0).reshape(2, 3),
        "empty": np.zeros((0, 2**31, 4)),
        "s": np.array(2.5),
    }
    path = tmp_path / "valid.emic"
    save_checkpoint(path, tensors)
    extents, offset = [], 6
    for name, value in tensors.items():
        offset += 2 + len(name) + 1
        extents += [offset + 4 * i for i in range(value.ndim)]
        offset += 4 * value.ndim + 8 * value.size
    return path.read_bytes(), extents


_READERS = {
    "emif": (read_feature_file, _feature_bytes_and_extents),
    "emic": (load_checkpoint, _checkpoint_bytes_and_extents),
}
_FUZZ = settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def _parses_or_format_error(kind: str, path: Path, raw: bytes) -> None:
    path.write_bytes(raw)
    try:
        _READERS[kind][0](path)
    except FormatError:
        pass


@pytest.mark.parametrize("kind", sorted(_READERS))
class TestReaderFuzz:
    """Any input either parses or raises FormatError; nothing else escapes."""

    @_FUZZ
    @given(tail=st.binary(max_size=300), keep_header=st.booleans())
    def test_arbitrary_bytes(self, kind, tmp_path, tail, keep_header):
        valid, _ = _READERS[kind][1](tmp_path)
        raw = valid[:6] + tail if keep_header else tail
        _parses_or_format_error(kind, tmp_path / f"fuzz.{kind}", raw)

    @_FUZZ
    @given(data=st.data())
    def test_one_byte_changed(self, kind, tmp_path, data):
        valid, _ = _READERS[kind][1](tmp_path)
        at = data.draw(st.integers(0, len(valid) - 1))
        raw = bytearray(valid)
        raw[at] = data.draw(st.integers(0, 255))
        _parses_or_format_error(kind, tmp_path / f"fuzz.{kind}", bytes(raw))

    @_FUZZ
    @given(data=st.data())
    def test_one_extent_changed(self, kind, tmp_path, data):
        valid, extents = _READERS[kind][1](tmp_path)
        raw = bytearray(valid)
        at = data.draw(st.sampled_from(extents))
        struct.pack_into("<I", raw, at, data.draw(st.integers(0, 2**32 - 1)))
        _parses_or_format_error(kind, tmp_path / f"fuzz.{kind}", bytes(raw))


def _manifest_bytes(tmp_path: Path) -> bytes:
    """A valid three-row manifest, one row per split."""
    path = tmp_path / "valid.csv"
    write_manifest(
        path,
        [
            ManifestRow(id=f"s{i}", split=split, path=f"s{i}.emif", target=np.full(6, 0.25))
            for i, split in enumerate(("train", "val", "test"))
        ],
    )
    return path.read_bytes()


def _parses_or_data_error(path: Path, raw: bytes) -> None:
    path.write_bytes(raw)
    try:
        load_manifest(path)
    except DataError:
        pass


class TestManifestFuzz:
    """Any manifest either parses or raises DataError; nothing else escapes."""

    @_FUZZ
    @given(tail=st.binary(max_size=300))
    def test_arbitrary_bytes_after_the_header(self, tmp_path, tail):
        valid = _manifest_bytes(tmp_path)
        header = valid[: valid.index(b"\n") + 1]
        _parses_or_data_error(tmp_path / MANIFEST_NAME, header + tail)

    @_FUZZ
    @given(data=st.data())
    def test_one_byte_changed(self, tmp_path, data):
        valid = _manifest_bytes(tmp_path)
        raw = bytearray(valid)
        raw[data.draw(st.integers(0, len(valid) - 1))] = data.draw(st.integers(0, 255))
        _parses_or_data_error(tmp_path / MANIFEST_NAME, bytes(raw))


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
                np.stack(
                    [
                        projections[m] @ s.features[m].mean(axis=0, dtype=np.float64)
                        for s in samples
                    ]
                )
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
