"""Unit tests for the simulated signature scheme."""

import pytest

from repro.crypto.keys import KeyPair, KeyRegistry
from repro.crypto.signature import sign, verify


class TestSignVerify:
    def test_roundtrip(self):
        pair = KeyPair.generate(1)
        signature = sign(b"message", pair)
        assert verify(b"message", signature, pair.public)

    def test_wrong_message_rejected(self):
        pair = KeyPair.generate(1)
        signature = sign(b"message", pair)
        assert not verify(b"other", signature, pair.public)

    def test_wrong_key_rejected(self):
        pair1 = KeyPair.generate(1)
        pair2 = KeyPair.generate(2)
        sign(b"message", pair2)  # ensure pair2 is known to the oracle
        signature = sign(b"message", pair1)
        assert not verify(b"message", signature, pair2.public)

    def test_unknown_public_key_rejected(self):
        pair = KeyPair.generate(1)
        signature = sign(b"message", pair)
        assert not verify(b"message", signature, b"\x00" * 32)

    def test_truncated_signature_rejected(self):
        pair = KeyPair.generate(1)
        signature = sign(b"message", pair)
        assert not verify(b"message", signature[:-1], pair.public)

    def test_deterministic_keys(self):
        assert KeyPair.generate(3, seed=9) == KeyPair.generate(3, seed=9)

    def test_seed_changes_keys(self):
        assert KeyPair.generate(3, seed=1) != KeyPair.generate(3, seed=2)


class TestVerifyTagComparison:
    """Only the exact 32-byte tag verifies; every other tag is rejected."""

    @pytest.fixture
    def pair(self):
        return KeyPair.generate(11)

    @pytest.fixture
    def tag(self, pair):
        return sign(b"payload", pair)

    def test_valid_tag_passes(self, pair, tag):
        assert len(tag) == 32
        assert verify(b"payload", tag, pair.public)

    @pytest.mark.parametrize("position", [0, 15, 31])
    @pytest.mark.parametrize("bit", [0, 7])
    def test_one_bit_flip_rejected(self, pair, tag, position, bit):
        flipped = bytearray(tag)
        flipped[position] ^= 1 << bit
        assert not verify(b"payload", bytes(flipped), pair.public)

    def test_truncated_tag_rejected(self, pair, tag):
        assert not verify(b"payload", tag[:16], pair.public)
        assert not verify(b"payload", b"", pair.public)

    def test_over_long_tag_rejected(self, pair, tag):
        assert not verify(b"payload", tag + b"\x00", pair.public)
        assert not verify(b"payload", tag + tag, pair.public)

    def test_unregistered_public_key_rejected(self, tag):
        assert not verify(b"payload", tag, KeyPair.generate(12, seed=99).public)


class TestRegistry:
    def test_register_and_lookup(self):
        registry = KeyRegistry()
        pair = KeyPair.generate(7)
        registry.register(pair)
        assert registry.public_key(7) == pair.public
        assert registry.is_registered(7)

    def test_unregistered_lookup_raises(self):
        registry = KeyRegistry()
        assert not registry.is_registered(7)
        try:
            registry.public_key(7)
            assert False, "expected KeyError"
        except KeyError:
            pass

    def test_conflicting_reregistration_rejected(self):
        registry = KeyRegistry()
        registry.register(KeyPair.generate(7, seed=1))
        try:
            registry.register(KeyPair.generate(7, seed=2))
            assert False, "expected ValueError"
        except ValueError:
            pass

    def test_idempotent_reregistration_allowed(self):
        registry = KeyRegistry()
        pair = KeyPair.generate(7)
        registry.register(pair)
        registry.register(pair)
        assert len(registry) == 1

    def test_iteration_sorted(self):
        registry = KeyRegistry()
        for node in (5, 1, 3):
            registry.register(KeyPair.generate(node))
        assert list(registry) == [1, 3, 5]
