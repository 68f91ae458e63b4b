"""Signature scheme tests: sign/verify/forge-resistance/address recovery."""

import pytest
from hypothesis import given, strategies as st

from repro.crypto.keys import (
    PrivateKey,
    Signature,
    derive_address,
    generate_keypair,
    recover_check,
    sign,
    verify,
)


class TestKeyGeneration:
    def test_deterministic_from_int_seed(self):
        assert generate_keypair(7) == generate_keypair(7)

    def test_different_seeds_differ(self):
        assert generate_keypair(1) != generate_keypair(2)

    def test_bytes_seed(self):
        kp = generate_keypair(b"alice")
        assert kp == generate_keypair(b"alice")
        assert kp != generate_keypair(b"bob")

    def test_random_keys_are_unique(self):
        assert generate_keypair() != generate_keypair()

    def test_private_key_must_be_32_bytes(self):
        with pytest.raises(ValueError):
            PrivateKey(b"short")

    def test_address_is_40_hex_chars(self):
        kp = generate_keypair(3)
        assert len(kp.address) == 40
        int(kp.address, 16)  # parses as hex

    def test_derived_values_computed_once_per_key(self):
        """A client's transactions share one sender string and one
        verification key instead of holding a fresh copy each."""
        kp = generate_keypair(3)
        assert kp.address is kp.address
        assert kp.address == derive_address(kp.public)
        a, b = sign(kp.private, b"one"), sign(kp.private, b"two")
        assert a.vk is b.vk
        assert verify(kp.public, b"two", b)


class TestSignVerify:
    def test_roundtrip(self):
        kp = generate_keypair(10)
        sig = sign(kp.private, b"hello")
        assert verify(kp.public, b"hello", sig)

    def test_wrong_message_fails(self):
        kp = generate_keypair(10)
        sig = sign(kp.private, b"hello")
        assert not verify(kp.public, b"goodbye", sig)

    def test_wrong_key_fails(self):
        kp1, kp2 = generate_keypair(10), generate_keypair(11)
        sig = sign(kp1.private, b"hello")
        assert not verify(kp2.public, b"hello", sig)

    def test_signature_is_deterministic(self):
        kp = generate_keypair(10)
        assert sign(kp.private, b"m") == sign(kp.private, b"m")

    def test_tampered_tag_fails(self):
        kp = generate_keypair(10)
        sig = sign(kp.private, b"m")
        bad = Signature(tag=bytes(32), vk=sig.vk)
        assert not verify(kp.public, b"m", bad)

    def test_transplanted_vk_fails(self):
        """A signature built with another key's vk must not verify: the
        binding in the public key pins the verification key."""
        kp1, kp2 = generate_keypair(20), generate_keypair(21)
        sig2 = sign(kp2.private, b"m")
        # Forge attempt: valid HMAC under kp2's vk presented against kp1.
        assert not verify(kp1.public, b"m", sig2)

    @given(st.binary(min_size=0, max_size=256))
    def test_roundtrip_arbitrary_messages(self, message):
        kp = generate_keypair(99)
        assert verify(kp.public, message, sign(kp.private, message))


class TestAddressRecovery:
    def test_recover_check_accepts_matching(self):
        kp = generate_keypair(30)
        sig = sign(kp.private, b"tx")
        assert recover_check(kp.public, b"tx", sig, kp.address)

    def test_recover_check_rejects_wrong_address(self):
        kp, other = generate_keypair(30), generate_keypair(31)
        sig = sign(kp.private, b"tx")
        assert not recover_check(kp.public, b"tx", sig, other.address)

    def test_derive_address_stable(self):
        kp = generate_keypair(32)
        assert derive_address(kp.public) == derive_address(kp.public)
