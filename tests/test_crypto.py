"""Unit + property tests for the crypto substrate."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import LINE_SIZE, MAC_BITS
from repro.crypto.hashing import (
    KeyedBlake2b,
    _serialize,
    encode_bytes_part,
    encode_int_part,
    encode_str_part,
    hash_bytes,
    keyed_hash,
    mac54,
    mac_n,
)
from repro.crypto.otp import CounterModeEngine

KEY = b"test-key"
OTHER_KEY = b"other-key"


class TestKeyedHash:
    def test_deterministic(self):
        assert keyed_hash(KEY, 1, "a") == keyed_hash(KEY, 1, "a")

    def test_key_separates(self):
        assert keyed_hash(KEY, 1) != keyed_hash(OTHER_KEY, 1)

    def test_order_matters(self):
        assert keyed_hash(KEY, 1, 2) != keyed_hash(KEY, 2, 1)

    def test_structural_separation(self):
        """Concatenation ambiguity: ("ab","c") must not equal ("a","bc")."""
        assert keyed_hash(KEY, "ab", "c") != keyed_hash(KEY, "a", "bc")

    def test_bytes_vs_str_distinct(self):
        assert keyed_hash(KEY, b"x") != keyed_hash(KEY, "x")

    def test_int_vs_str_distinct(self):
        assert keyed_hash(KEY, 49) != keyed_hash(KEY, "1")

    def test_rejects_negative_int(self):
        with pytest.raises(ValueError):
            keyed_hash(KEY, -1)

    def test_rejects_bool(self):
        with pytest.raises(TypeError):
            keyed_hash(KEY, True)

    def test_rejects_unknown_type(self):
        with pytest.raises(TypeError):
            keyed_hash(KEY, 1.5)

    def test_64_bit_range(self):
        value = keyed_hash(KEY, "probe")
        assert 0 <= value < 1 << 64


class TestMacTruncation:
    def test_mac54_width(self):
        for probe in range(32):
            assert mac54(KEY, probe) < 1 << MAC_BITS

    def test_mac_n_width(self):
        assert mac_n(KEY, 10, "x") < 1 << 10

    def test_hash_bytes_length(self):
        assert len(hash_bytes(KEY, 32, "x")) == 32

    def test_hash_bytes_rejects_oversize(self):
        with pytest.raises(ValueError):
            hash_bytes(KEY, 65, "x")

    @given(st.integers(min_value=0, max_value=2 ** 32),
           st.integers(min_value=0, max_value=2 ** 32))
    @settings(max_examples=50)
    def test_distinct_inputs_rarely_collide(self, a, b):
        if a != b:
            assert keyed_hash(KEY, a) != keyed_hash(KEY, b)


class TestFastPathEquivalence:
    """The hot-path helpers must be byte-identical to the generic path.

    ``SITAuthenticator`` and ``CounterModeEngine`` assemble their hash
    messages from these piecewise encoders and a prototype-copied keyed
    BLAKE2b; every MAC and pad in the repo depends on these producing
    exactly the bytes ``_serialize``/``mac54``/``hash_bytes`` would.
    """

    @given(st.integers(min_value=0, max_value=2 ** 80))
    @settings(max_examples=200)
    def test_int_part_matches_serialize(self, value):
        assert encode_int_part(value) == _serialize((value,))

    def test_int_part_boundaries(self):
        for value in (0, 1, 255, 256, 65535, 65536, 2 ** 54 - 1, 2 ** 64):
            assert encode_int_part(value) == _serialize((value,))

    def test_int_part_rejects_negative(self):
        with pytest.raises(ValueError):
            encode_int_part(-1)

    @given(st.text(max_size=32))
    @settings(max_examples=50)
    def test_str_part_matches_serialize(self, value):
        assert encode_str_part(value) == _serialize((value,))

    @given(st.binary(max_size=80))
    @settings(max_examples=50)
    def test_bytes_part_matches_serialize(self, value):
        assert encode_bytes_part(value) == _serialize((value,))

    @given(st.binary(min_size=0, max_size=200))
    @settings(max_examples=50)
    def test_keyed_blake2b_matches_fresh_instance(self, message):
        import hashlib

        prf = KeyedBlake2b(KEY, digest_size=8)
        fresh = hashlib.blake2b(message, key=KEY, digest_size=8)
        assert prf.digest(message) == fresh.digest()
        # the prototype is not consumed: a second digest still matches
        assert prf.digest(message) == fresh.digest()

    @given(st.integers(min_value=0, max_value=4),
           st.integers(min_value=0, max_value=2 ** 20),
           st.lists(st.integers(min_value=0, max_value=2 ** 30),
                    min_size=8, max_size=8),
           st.integers(min_value=0, max_value=2 ** 30),
           st.integers(min_value=0, max_value=1023))
    @settings(max_examples=50)
    def test_node_mac_matches_mac54(self, level, index, counters,
                                    parent_counter, lsbs):
        from repro.tree.sit import SITAuthenticator

        auth = SITAuthenticator(KEY)
        assert auth.node_mac((level, index), counters,
                             parent_counter, lsbs) == \
            mac54(KEY, "sit-node", level, index, *counters,
                  parent_counter, lsbs)

    @given(st.integers(min_value=0, max_value=2 ** 20),
           st.binary(min_size=LINE_SIZE, max_size=LINE_SIZE),
           st.integers(min_value=0, max_value=2 ** 40),
           st.integers(min_value=0, max_value=1023))
    @settings(max_examples=50)
    def test_data_mac_matches_mac54(self, address, ciphertext,
                                    counter, lsbs):
        from repro.tree.sit import SITAuthenticator

        auth = SITAuthenticator(KEY)
        assert auth.data_mac(address, ciphertext, counter, lsbs) == \
            mac54(KEY, "sit-data", address, ciphertext, counter, lsbs)

    @given(st.integers(min_value=0, max_value=2 ** 30),
           st.integers(min_value=0, max_value=2 ** 40))
    @settings(max_examples=50)
    def test_line_pad_matches_hash_bytes(self, address, counter):
        engine = CounterModeEngine(KEY)
        assert engine.one_time_pad(address, counter) == \
            hash_bytes(KEY, 64, "otp", address, counter, 0)


class TestCounterModeEngine:
    def setup_method(self):
        self.engine = CounterModeEngine(KEY)

    def test_rejects_empty_key(self):
        with pytest.raises(ValueError):
            CounterModeEngine(b"")

    def test_pad_length(self):
        assert len(self.engine.one_time_pad(0, 0)) == LINE_SIZE

    def test_roundtrip(self):
        plaintext = bytes(range(64))
        ciphertext = self.engine.encrypt(plaintext, 7, 3)
        assert self.engine.decrypt(ciphertext, 7, 3) == plaintext

    def test_ciphertext_differs_from_plaintext(self):
        plaintext = bytes(64)
        assert self.engine.encrypt(plaintext, 7, 3) != plaintext

    def test_counter_changes_ciphertext(self):
        plaintext = bytes(64)
        assert self.engine.encrypt(plaintext, 7, 3) != \
            self.engine.encrypt(plaintext, 7, 4)

    def test_address_changes_ciphertext(self):
        plaintext = bytes(64)
        assert self.engine.encrypt(plaintext, 7, 3) != \
            self.engine.encrypt(plaintext, 8, 3)

    def test_wrong_counter_garbles(self):
        plaintext = bytes(range(64))
        ciphertext = self.engine.encrypt(plaintext, 7, 3)
        assert self.engine.decrypt(ciphertext, 7, 4) != plaintext

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            self.engine.encrypt(b"short", 0, 0)

    @given(st.binary(min_size=LINE_SIZE, max_size=LINE_SIZE),
           st.integers(min_value=0, max_value=2 ** 30),
           st.integers(min_value=0, max_value=2 ** 40))
    @settings(max_examples=40)
    def test_roundtrip_property(self, plaintext, address, counter):
        ciphertext = self.engine.encrypt(plaintext, address, counter)
        assert self.engine.decrypt(ciphertext, address, counter) == \
            plaintext

    def test_pads_unique_across_addr_counter(self):
        pads = {
            self.engine.one_time_pad(addr, counter)
            for addr in range(8) for counter in range(8)
        }
        assert len(pads) == 64
