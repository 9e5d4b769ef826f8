"""Counter-mode encryption (Section II-B of the paper).

A one-time pad (OTP) is derived from (secret key, line address, counter)
and XORed with the 64-byte line. Because the counter increments on every
write to the same address, and the address differs across lines, no pad is
ever reused — the property CME relies on.

The paper's hardware generates the pad with AES; this reproduction uses a
keyed BLAKE2b keystream. The construction is identical in shape (keyed PRF
over (address, counter)); only the primitive differs, and nothing in the
evaluation depends on the choice of block cipher.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.config import LINE_SIZE
from repro.crypto.hashing import (
    KeyedBlake2b,
    encode_int_part,
    encode_str_part,
)

# the serialized "otp" domain tag and the block-0 suffix never change;
# byte-identical to routing them through hash_bytes (pinned by tests)
_OTP_PREFIX = encode_str_part("otp")
_BLOCK0_SUFFIX = encode_int_part(0)


class CounterModeEngine:
    """Encrypts and decrypts 64-byte lines under counter mode.

    Hot-path notes: the XOR runs as one wide integer operation rather
    than a per-byte generator (an order of magnitude cheaper in
    CPython), and derived pads sit in a small bounded cache — the
    common encrypt-then-verify / write-then-read-back sequences reuse
    the (address, counter) pad immediately. Caching pads does not
    weaken the OTP argument: a pad is reused only for the *same*
    (address, counter) pair, where it is the same pad by definition.
    """

    _PAD_CACHE_LIMIT = 4096

    __slots__ = ("_pad_cache", "_prf")

    def __init__(self, key: bytes) -> None:
        if not key:
            raise ValueError("encryption key must be non-empty")
        self._pad_cache: Dict[Tuple[int, int], bytes] = {}
        self._prf = KeyedBlake2b(key, digest_size=LINE_SIZE)

    def one_time_pad(self, address: int, counter: int) -> bytes:
        """The pad for (address, counter); never reused across writes."""
        cache = self._pad_cache
        pad = cache.get((address, counter))
        if pad is None:
            pad = self._derive_pad(address, counter)
            if len(cache) >= self._PAD_CACHE_LIMIT:
                cache.clear()
            cache[(address, counter)] = pad
        return pad

    def _derive_pad(self, address: int, counter: int) -> bytes:
        # one 64-byte digest is the whole pad: keystream block 0
        return self._prf.digest(
            _OTP_PREFIX
            + encode_int_part(address)
            + encode_int_part(counter)
            + _BLOCK0_SUFFIX
        )

    def encrypt(self, plaintext: bytes, address: int, counter: int) -> bytes:
        """XOR ``plaintext`` with the (address, counter) pad."""
        if len(plaintext) != LINE_SIZE:
            raise ValueError(
                "plaintext must be exactly %d bytes" % LINE_SIZE
            )
        pad = self.one_time_pad(address, counter)
        return (
            int.from_bytes(plaintext, "big")
            ^ int.from_bytes(pad, "big")
        ).to_bytes(LINE_SIZE, "big")

    def decrypt(self, ciphertext: bytes, address: int, counter: int) -> bytes:
        """XOR is an involution: decryption equals encryption."""
        return self.encrypt(ciphertext, address, counter)
