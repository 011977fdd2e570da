import hashlib
import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from cascadet import cli, fixtures
from cascadet import weights as W

from test_pipeline import write_run_setup


def sample_archive():
    rng = np.random.default_rng(0)
    return W.WeightArchive(
        {"conv.weight": rng.normal(size=(4, 3, 3, 3)).astype(np.float32),
         "conv.bias": rng.normal(size=4).astype(np.float32),
         "fc.weight": rng.normal(size=(2, 8)).astype(np.float32)},
        metadata={"normalization": "(v - 127.5) / 128", "class_order": "Mask,NoMask"})


class TestRoundTrip:
    def test_bitwise_round_trip(self, tmp_path):
        archive = sample_archive()
        path = tmp_path / "a.cwts"
        W.save(archive, path)
        loaded = W.load(path)
        assert loaded == archive
        for name in archive.names():
            assert loaded.get(name).tobytes() == archive.get(name).tobytes()
            assert loaded.get(name).shape == archive.get(name).shape

    def test_order_preserved(self, tmp_path):
        archive = sample_archive()
        path = tmp_path / "a.cwts"
        W.save(archive, path)
        assert W.load(path).names() == archive.names()

    def test_empty_archive(self, tmp_path):
        path = tmp_path / "empty.cwts"
        W.save(W.WeightArchive(), path)
        data = path.read_bytes()
        # magic + version + count + crc
        assert len(data) == 16
        assert data[:4] == b"CWTS"
        assert struct.unpack_from("<I", data, 8)[0] == 0
        loaded = W.load(path)
        assert len(loaded) == 0 and loaded.metadata == {}

    # The golden trace and the benchmark both run on these exact bytes.
    @pytest.mark.parametrize("make, digest", [
        (fixtures.fixture_cascade_archive,
         "f2d7d09a783f029dbd775efb7ec123c5023817102479d23c5d789c5963af4c2a"),
        (fixtures.fixture_classifier_archive,
         "34317a9c8a4ab1f7c6581acd47b1178c69a4fb8e2ca47319b62ef2fbe737c664"),
    ], ids=["cascade", "classifier"])
    def test_fixture_archive_bytes_pinned(self, tmp_path, make, digest):
        path = tmp_path / "fixture.cwts"
        W.save(make(), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


class TestValidation:
    def test_corrupted_final_byte_fails_checksum(self, tmp_path):
        path = tmp_path / "a.cwts"
        W.save(sample_archive(), path)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(W.ArchiveError, match="checksum mismatch"):
            W.load(path)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "a.cwts"
        W.save(sample_archive(), path)
        path.write_bytes(path.read_bytes()[:10])
        with pytest.raises(W.ArchiveError):
            W.load(path)

    def test_file_shorter_than_magic(self, tmp_path, capsys):
        config_path = write_run_setup(tmp_path, [0], width=160, height=120)
        path = tmp_path / "cascade.cwts"
        path.write_bytes(W.MAGIC[:3])
        with pytest.raises(W.ArchiveError, match="file is only 3 bytes"):
            W.load(path)
        assert cli.main(["detect", "--config", str(config_path)]) == cli.EXIT_DATA
        assert "data error" in capsys.readouterr().err

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "a.cwts"
        W.save(sample_archive(), path)
        blob = bytearray(path.read_bytes())
        blob[0] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(W.ArchiveError, match="bad magic"):
            W.load(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "a.cwts"
        archive = W.WeightArchive({"t": np.ones(2, np.float32)})
        W.save(archive, path)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<I", blob, 4, 99)
        body = bytes(blob[:-4])
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        with pytest.raises(W.ArchiveError, match="unsupported version 99"):
            W.load(path)

    def test_single_bit_flips_all_detected(self, tmp_path):
        path = tmp_path / "a.cwts"
        W.save(sample_archive(), path)
        original = path.read_bytes()
        rng = np.random.default_rng(7)
        for _ in range(100):
            bit = int(rng.integers(0, len(original) * 8))
            blob = bytearray(original)
            blob[bit // 8] ^= 1 << (bit % 8)
            path.write_bytes(bytes(blob))
            with pytest.raises(W.ArchiveError):
                W.load(path)
            if bit >= 64:  # beyond magic+version: must be the checksum check
                blob2 = bytearray(original)
                blob2[bit // 8] ^= 1 << (bit % 8)
                path.write_bytes(bytes(blob2))
                with pytest.raises(W.ArchiveError, match="checksum mismatch"):
                    W.load(path)

    @pytest.mark.parametrize("entries", [
        [(b"__meta__", 0, (), b"")],
        [(b"b\xc3\xa9zier", 1, (1,), b"\0" * 4)],
        [(b"__meta__", 1, (2,), b"\xff\xfe")],
        [(b"a", 1, (1,), b"\0" * 4), (b"a", 1, (1,), b"\1" * 4)],
        [(b"__meta__", 1, (4,), b"a=1\n"), (b"__meta__", 1, (4,), b"b=2\n")],
        [(b"a", 1, (4,), b"\0" * 4)],
        [(b"a", 1, (1,), b"\0" * 8)],
    ], ids=["meta-rank-0", "non-ascii-name", "non-utf8-meta", "duplicate-tensor",
            "duplicate-meta", "entry-past-end", "trailing-bytes"])
    def test_malformed_entry_is_data_error(self, tmp_path, capsys, entries):
        # An archive of (name, rank, extents, payload) entries with a correct
        # checksum, used as the cascade weights of an otherwise valid run.
        config_path = write_run_setup(tmp_path, [0], width=160, height=120)
        body = W.MAGIC + struct.pack("<II", W.VERSION, len(entries))
        for name, rank, extents, payload in entries:
            body += (struct.pack("<I", len(name)) + name
                     + struct.pack(f"<{1 + rank}I", rank, *extents) + payload)
        path = tmp_path / "cascade.cwts"
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        with pytest.raises(W.ArchiveError):
            W.load(path)
        assert cli.main(["detect", "--config", str(config_path)]) == cli.EXIT_DATA
        assert "data error" in capsys.readouterr().err

    def test_load_peak_memory_near_file_size(self, tmp_path):
        path = tmp_path / "classifier.cwts"
        W.save(fixtures.fixture_classifier_archive(), path)
        tracemalloc.start()
        try:
            W.load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The file bytes plus one copy of every tensor, with small overhead.
        assert peak < 2.2 * path.stat().st_size

    def test_name_rules(self):
        archive = W.WeightArchive()
        with pytest.raises(W.ArchiveError):
            archive.put("", np.ones(1, np.float32))
        with pytest.raises(W.ArchiveError):
            archive.put("bézier", np.ones(1, np.float32))
        with pytest.raises(W.ArchiveError):
            archive.put("__meta__", np.ones(1, np.float32))
        archive.put("ok", np.ones(1, np.float32))
        with pytest.raises(W.ArchiveError):
            archive.put("ok", np.ones(1, np.float32))

    def test_empty_tensor_rejected(self):
        with pytest.raises(W.ArchiveError):
            W.WeightArchive({"t": np.zeros((0, 3), np.float32)})

    @pytest.mark.parametrize("metadata", [
        {"a": "x\ny"}, {"k=1": "v"}, {"a": "line\r"}, {"a\n": "v"},
        {"a": "x\u2028y"},
    ], ids=["value-newline", "key-equals", "value-cr", "key-newline",
            "value-line-separator"])
    def test_unreadable_metadata_refused_before_writing(self, tmp_path,
                                                        metadata):
        path = tmp_path / "a.cwts"
        with pytest.raises(W.ArchiveError, match="metadata"):
            W.save(W.WeightArchive({"t": np.ones(2, np.float32)}, metadata),
                   path)
        assert not path.exists()

    def test_metadata_value_may_hold_equals(self, tmp_path):
        path = tmp_path / "a.cwts"
        W.save(W.WeightArchive(metadata={"k": "a=b"}), path)
        assert W.load(path).metadata == {"k": "a=b"}


class TestRandomInit:
    def test_same_seed_identical(self):
        spec = [("a", (3, 4)), ("b", (7,))]
        first = W.random_init(spec, seed=42)
        second = W.random_init(spec, seed=42)
        assert first == second

    def test_different_seed_differs(self):
        spec = [("a", (3, 4))]
        assert W.random_init(spec, 1) != W.random_init(spec, 2)

    def test_documented_generator_first_draws(self):
        # Independent scalar implementation of the documented recurrence.
        state = 0
        expected = []
        for _ in range(2):
            state = (state * 6364136223846793005 + 1442695040888963407) % 2**64
            expected.append(np.float32((state >> 11) / 2**53 * 0.2 - 0.1))
        archive = W.random_init([("t", (2,))], seed=0)
        np.testing.assert_array_equal(archive.get("t"), expected)

    def test_block_generator_matches_scalar_for_long_streams(self):
        # The vectorized generator equals the scalar recurrence draw for
        # draw, for long and empty streams and at the largest seed.
        def scalar(seed, n):
            state = seed
            values = np.empty(n, np.float32)
            for i in range(n):
                state = (state * 6364136223846793005
                         + 1442695040888963407) % 2**64
                values[i] = np.float32((state >> 11) / 2**53 * 0.2 - 0.1)
            return values

        archive = W.random_init([("t", (5000,))], seed=123)
        np.testing.assert_array_equal(archive.get("t"), scalar(123, 5000))
        for seed, n in ((123, 0), (123, 1), (2**64 - 1, 5000)):
            got = W._lcg_uniform(seed, n)
            assert got.dtype == np.float32
            np.testing.assert_array_equal(got, scalar(seed, n))

    def test_values_in_range(self):
        archive = W.random_init([("t", (1000,))], seed=9)
        t = archive.get("t")
        assert (t >= -0.1).all() and (t < 0.1).all()
