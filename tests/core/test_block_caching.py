"""Header/body identity caching (docs/performance.md).

Headers are frozen, so their canonical encodings and digests are
memoised on the instance.  These tests pin the cache's contract:
cached values equal fresh recomputations, entries are keyed by digest
width, the frozen-dataclass guarantee holds, and wire round-trips are
unaffected by warm caches, and tampered copies of a warm header
start cold and fail authentication.
"""

import dataclasses

import pytest

from repro.bench.runner import _clear_header_caches
from repro.core import codec, wire
from repro.core.block import BlockHeader, build_block, make_body
from repro.core.config import ProtocolConfig
from repro.core.pop.cache import HeaderCache
from repro.core.pop.validator import PopValidator
from repro.crypto.hashing import hash_bytes
from repro.crypto.keys import KeyPair, KeyRegistry
from repro.crypto.puzzle import NoncePuzzle

CACHE_ATTRS = (
    "_hdr_block_id",
    "_hdr_digest_map_bytes",
    "_hdr_signing_payload",
    "_hdr_encoded",
    "_hdr_digest_by_bits",
    "_hdr_ref_values",
    "_hdr_wire",
)


@pytest.fixture
def config():
    return ProtocolConfig(body_bits=8_000, gamma=2)


@pytest.fixture
def keypair():
    return KeyPair.generate(3)


@pytest.fixture
def header(config, keypair):
    digests = {j: hash_bytes(f"parent-{j}".encode()) for j in range(4)}
    block = build_block(
        origin=3, index=5, time=2.5, body=make_body(3, 5, config),
        digests=digests, keypair=keypair, config=config,
    )
    return block.header


def clear_caches(header: BlockHeader) -> None:
    for attr in CACHE_ATTRS:
        header.__dict__.pop(attr, None)


def warm_all_caches(header: BlockHeader) -> None:
    """Touch every memoised path once: identity, encodings, digests, wire."""
    header.block_id
    header.digest()
    header.digest(bits=128)
    header.references(hash_bytes(b"warmup"))
    wire.encode_header(header)
    header.puzzle_fields()


def cold_digest_map_bytes(header: BlockHeader) -> bytes:
    return codec.encode_digest_map(
        {node: digest.value for node, digest in header.digests.items()}
    )


def forged_digests(header: BlockHeader) -> dict:
    """Δ of ``header`` with its lowest-id entry replaced."""
    digests = dict(header.digests)
    digests[min(digests)] = hash_bytes(b"forged-parent")
    return digests


class TestCacheAttrsComplete:
    @pytest.mark.parametrize("clear", [_clear_header_caches, clear_caches])
    def test_clear_drops_every_cache_slot(self, header, clear):
        warm_all_caches(header)
        assert any(key.startswith("_hdr_") for key in header.__dict__)
        clear(header)
        assert [key for key in header.__dict__ if key.startswith("_hdr_")] == []


class TestDigestCache:
    def test_warm_digest_equals_cold_recompute(self, header):
        warm = header.digest()
        clear_caches(header)
        cold = header.digest()
        assert warm == cold
        assert warm.value == hash_bytes(header.encode()).value

    def test_second_call_returns_cached_object(self, header):
        assert header.digest() is header.digest()

    def test_width_keyed_entries(self, header):
        wide = header.digest()
        narrow = header.digest(bits=128)
        assert wide.bits == 256 and narrow.bits == 128
        # Truncated SHA-256: the narrow digest is the wide one's prefix.
        assert narrow.value == wide.value[:16]
        # Both widths stay cached independently.
        assert header.digest(bits=128) is narrow
        assert header.digest() is wide

    def test_encode_cached_and_stable(self, header):
        first = header.encode()
        assert header.encode() is first
        clear_caches(header)
        assert header.encode() == first

    def test_signing_payload_prewarmed_by_build(self, header):
        warm = header.signing_payload()
        clear_caches(header)
        assert header.signing_payload() == warm

    def test_digest_map_bytes_prewarmed_by_build(self, header):
        assert header.__dict__["_hdr_digest_map_bytes"] == cold_digest_map_bytes(header)

    def test_warm_encodings_equal_cold_codec_recompute(self, header):
        warm_all_caches(header)
        assert header.puzzle_fields() == [header.root.value, cold_digest_map_bytes(header)]
        assert header.signing_payload() == codec.encode_fields(
            [
                ("version", codec.encode_u32(header.version)),
                ("time", codec.encode_time(header.time)),
                ("root", header.root.value),
                ("digests", cold_digest_map_bytes(header)),
                ("nonce", codec.encode_u64(header.nonce)),
            ]
        )

    def test_block_id_memoised(self, header):
        block_id = header.block_id
        assert header.block_id is block_id
        assert (block_id.origin, block_id.index) == (header.origin, header.index)

    def test_replace_starts_cold(self, header):
        header.digest()
        tampered = dataclasses.replace(header, nonce=header.nonce + 1)
        assert "_hdr_digest_by_bits" not in tampered.__dict__
        assert tampered.digest() != header.digest()


class TestMutationSafety:
    def test_fields_are_frozen(self, header):
        with pytest.raises(dataclasses.FrozenInstanceError):
            header.nonce = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            header.digests = {}

    def test_caches_do_not_affect_equality_or_repr(self, header):
        twin = dataclasses.replace(header)
        header.digest()
        header.references(hash_bytes(b"x"))
        assert header == twin
        assert repr(header) == repr(twin)


class TestReferences:
    def test_matches_linear_scan(self, header):
        present = list(header.digests.values())
        absent = [hash_bytes(f"absent-{i}".encode()) for i in range(3)]
        for digest in present + absent:
            expected = any(d == digest for d in header.digests.values())
            assert header.references(digest) is expected

    def test_consistent_after_warmup(self, header):
        target = next(iter(header.digests.values()))
        assert header.references(target)
        assert header.references(target)  # cached frozenset path
        assert not header.references(hash_bytes(b"never-referenced"))


class TestWireRoundTripWithWarmCaches:
    def test_decode_encode_round_trip(self, header):
        # Warm every cache first: round-tripping must not be affected.
        header.digest()
        header.digest(bits=128)
        header.encode()
        header.references(hash_bytes(b"warmup"))
        data = wire.encode_header(header)
        assert wire.encode_header(header) is data  # wire bytes memoised
        decoded = wire.decode_header(data)
        assert decoded == header
        assert decoded.digest() == header.digest()
        assert wire.encode_header(decoded) == data

    def test_body_root_memoised(self, config, keypair):
        block = build_block(
            origin=1, index=0, time=0.0, body=make_body(1, 0, config),
            digests={}, keypair=keypair, config=config,
        )
        root = block.body.root(config.hash_bits)
        assert block.body.root(config.hash_bits) is root
        assert block.verify_body_root()
        # A fresh body object recomputes to the same value.
        fresh = make_body(1, 0, config)
        assert fresh.root(config.hash_bits) == root


class TestTamperingWithWarmCaches:
    """A ``dataclasses.replace`` copy of a warm header must not authenticate."""

    DIFFICULTY = 6

    @pytest.fixture
    def puzzle_config(self):
        return ProtocolConfig(body_bits=8_000, gamma=2, puzzle_difficulty_bits=self.DIFFICULTY)

    @pytest.fixture
    def registry(self, keypair):
        registry = KeyRegistry()
        registry.register(keypair)
        registry.register(KeyPair.generate(4))
        return registry

    @pytest.fixture
    def validator(self, puzzle_config, registry):
        return PopValidator(
            interface=None, cache=HeaderCache(puzzle_config.hash_bits),
            topology=None, registry=registry, config=puzzle_config,
        )

    @pytest.fixture
    def warm_header(self, puzzle_config, keypair, validator):
        digests = {j: hash_bytes(f"parent-{j}".encode()) for j in range(4)}
        header = build_block(
            origin=3, index=5, time=2.5, body=make_body(3, 5, puzzle_config),
            digests=digests, keypair=keypair, config=puzzle_config,
        ).header
        warm_all_caches(header)
        assert validator._header_authentic(header, expected_origin=3)
        return header

    def _failing_nonce(self, header, puzzle):
        nonce = header.nonce + 1
        while puzzle.check([header.root.value, cold_digest_map_bytes(header)], nonce):
            nonce += 1
        return nonce

    def test_each_field_change_starts_cold_and_fails(self, warm_header, validator, puzzle_config):
        puzzle = NoncePuzzle(puzzle_config.puzzle_difficulty_bits, puzzle_config.hash_bits)
        copies = {
            "digests": dataclasses.replace(warm_header, digests=forged_digests(warm_header)),
            "nonce": dataclasses.replace(
                warm_header, nonce=self._failing_nonce(warm_header, puzzle)
            ),
            "root": dataclasses.replace(warm_header, root=hash_bytes(b"forged-root")),
            "time": dataclasses.replace(warm_header, time=warm_header.time + 1.0),
            "origin": dataclasses.replace(warm_header, origin=4),
        }
        for field_name, copy in copies.items():
            assert "_hdr_digest_map_bytes" not in copy.__dict__, field_name
            assert not validator._header_authentic(copy, expected_origin=copy.origin), field_name

    def test_nonce_below_difficulty_fails_the_puzzle(self, warm_header, puzzle_config):
        puzzle = NoncePuzzle(puzzle_config.puzzle_difficulty_bits, puzzle_config.hash_bits)
        copy = dataclasses.replace(warm_header, nonce=self._failing_nonce(warm_header, puzzle))
        assert not puzzle.check([copy.root.value, cold_digest_map_bytes(copy)], copy.nonce)
        assert not copy.verify_nonce(puzzle)
        assert warm_header.verify_nonce(puzzle)

    def test_tampered_digests_change_the_cached_encoding(self, warm_header):
        copy = dataclasses.replace(warm_header, digests=forged_digests(warm_header))
        assert copy.puzzle_fields()[1] == cold_digest_map_bytes(copy)
        assert copy.puzzle_fields()[1] != warm_header.puzzle_fields()[1]
