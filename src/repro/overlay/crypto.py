"""Simulation-grade public-key scheme and certification authority.

The paper assumes X.509 certificates from trustworthy CAs, peer key
pairs and signed messages (Section III-C).  No cryptography library is
available offline, so this module implements a small, self-contained
textbook RSA (Miller-Rabin prime generation, e = 65537, SHA-256 message
digests) plus an X.509-like certificate record carrying the creation
date ``t0`` that Section III-D folds into identifier generation.

**This code is simulation-grade, not security-grade**: 512-bit moduli
and textbook (unpadded) RSA are trivially breakable in the real world.
The experiments only require (i) that certificates bind ``t0`` and a
public key unforgeably *within the simulation*, and (ii) that identifier
derivation is unpredictable -- both of which this scheme provides.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.overlay.errors import CertificateError, SignatureError

#: Default RSA modulus size; small on purpose (simulation speed).
DEFAULT_KEY_BITS = 512

#: Standard RSA public exponent.
PUBLIC_EXPONENT = 65537

#: Deterministic Miller-Rabin witnesses, sufficient for n < 3.3 * 10^24.
_SMALL_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
    67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137,
    139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199,
)


def is_probable_prime(n: int, rng: np.random.Generator, rounds: int = 20) -> bool:
    """Miller-Rabin primality test with fixed plus random witnesses."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1

    def witnesses():
        yield from _SMALL_WITNESSES
        words_needed = (n.bit_length() // 30) + 1
        for _ in range(rounds):
            # Build an arbitrary-precision random witness from 30-bit
            # words (numpy generators cap at 64-bit draws).
            value = 0
            for _ in range(words_needed):
                value = (value << 30) | int(rng.integers(0, 1 << 30))
            yield 2 + value % (n - 3)

    for a in witnesses():
        a %= n
        if a in (0, 1, n - 1):
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


def generate_prime(bits: int, rng: np.random.Generator) -> int:
    """Random prime with exactly ``bits`` bits."""
    if bits < 8:
        raise CertificateError(f"prime size must be >= 8 bits, got {bits}")
    while True:
        words = [int(rng.integers(0, 1 << 30)) for _ in range((bits // 30) + 1)]
        candidate = 0
        for word in words:
            candidate = (candidate << 30) | word
        candidate &= (1 << bits) - 1
        candidate |= (1 << (bits - 1)) | 1  # exact size, odd
        if is_probable_prime(candidate, rng):
            return candidate


def _message_digest(message: bytes) -> int:
    return int.from_bytes(hashlib.sha256(message).digest(), "big")


@dataclass(frozen=True)
class PublicKey:
    """RSA public key ``(n, e)``."""

    modulus: int
    exponent: int = PUBLIC_EXPONENT

    def verify(self, message: bytes, signature: int) -> bool:
        """True when ``signature`` opens to the SHA-256 of ``message``."""
        if not 0 <= signature < self.modulus:
            return False
        expected = _message_digest(message) % self.modulus
        return pow(signature, self.exponent, self.modulus) == expected

    def fingerprint(self) -> bytes:
        """Stable byte encoding used inside certificates."""
        return f"rsa|{self.modulus:x}|{self.exponent:x}".encode()


@dataclass(frozen=True)
class KeyPair:
    """RSA key pair; the private exponent never leaves this object."""

    public: PublicKey
    _private_exponent: int

    @classmethod
    def generate(
        cls, rng: np.random.Generator, bits: int = DEFAULT_KEY_BITS
    ) -> "KeyPair":
        """Generate a fresh key pair using the supplied seeded RNG."""
        half = bits // 2
        while True:
            p = generate_prime(half, rng)
            q = generate_prime(bits - half, rng)
            if p == q:
                continue
            n = p * q
            phi = (p - 1) * (q - 1)
            if phi % PUBLIC_EXPONENT == 0:
                continue
            d = pow(PUBLIC_EXPONENT, -1, phi)
            return cls(PublicKey(n, PUBLIC_EXPONENT), d)

    def sign(self, message: bytes) -> int:
        """Textbook RSA signature over the SHA-256 digest."""
        digest = _message_digest(message) % self.public.modulus
        return pow(digest, self._private_exponent, self.public.modulus)


@dataclass(frozen=True)
class Certificate:
    """X.509-like record binding a subject to a key and a creation date.

    ``created_at`` is the paper's ``t0``: hashing it into the initial
    identifier forces every peer -- malicious included -- to obtain a
    fresh, unpredictable identifier per incarnation.
    """

    serial: int
    subject: str
    public_key: PublicKey
    created_at: float
    issuer: str
    signature: int

    def signed_fields(self) -> bytes:
        """Canonical byte encoding of the fields covered by the CA
        signature (and hashed into ``id0``)."""
        return b"|".join(
            (
                f"serial={self.serial}".encode(),
                f"subject={self.subject}".encode(),
                self.public_key.fingerprint(),
                f"t0={self.created_at!r}".encode(),
                f"issuer={self.issuer}".encode(),
            )
        )


class CertificateAuthority:
    """Trustworthy registration authority issuing peer certificates.

    A single CA suffices for the experiments; the class is cheap enough
    to instantiate several if a federation is ever needed.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        name: str = "repro-ca",
        key_bits: int = DEFAULT_KEY_BITS,
    ) -> None:
        self._name = name
        self._keys = KeyPair.generate(rng, key_bits)
        self._serial = 0

    @property
    def name(self) -> str:
        """Issuer name embedded in certificates."""
        return self._name

    @property
    def public_key(self) -> PublicKey:
        """CA verification key, distributed out of band."""
        return self._keys.public

    def issue(
        self, subject: str, public_key: PublicKey, created_at: float
    ) -> Certificate:
        """Issue a certificate for ``subject`` created at time ``t0``."""
        if created_at < 0:
            raise CertificateError(
                f"creation time must be >= 0, got {created_at}"
            )
        self._serial += 1
        unsigned = Certificate(
            serial=self._serial,
            subject=subject,
            public_key=public_key,
            created_at=created_at,
            issuer=self._name,
            signature=0,
        )
        signature = self._keys.sign(unsigned.signed_fields())
        return Certificate(
            serial=unsigned.serial,
            subject=unsigned.subject,
            public_key=unsigned.public_key,
            created_at=unsigned.created_at,
            issuer=unsigned.issuer,
            signature=signature,
        )

    def verify(self, certificate: Certificate) -> None:
        """Raise :class:`CertificateError` unless the certificate is
        genuine and issued by this CA."""
        if certificate.issuer != self._name:
            raise CertificateError(
                f"certificate issued by {certificate.issuer!r}, "
                f"expected {self._name!r}"
            )
        if not self.public_key.verify(
            certificate.signed_fields(), certificate.signature
        ):
            raise CertificateError(
                f"bad CA signature on certificate #{certificate.serial}"
            )


@dataclass(frozen=True)
class SignedMessage:
    """A payload signed by a peer, carrying its certificate.

    Section III-C: recipients ignore any message that is not signed
    properly; messages contain the issuer certificate for validation.
    """

    payload: bytes
    certificate: Certificate
    signature: int

    def verify(self, ca: CertificateAuthority) -> None:
        """Validate both the certificate chain and the payload signature."""
        ca.verify(self.certificate)
        if not self.certificate.public_key.verify(self.payload, self.signature):
            raise SignatureError(
                f"bad signature on message from {self.certificate.subject!r}"
            )


def sign_message(
    payload: bytes, keys: KeyPair, certificate: Certificate
) -> SignedMessage:
    """Produce a :class:`SignedMessage` for ``payload``."""
    return SignedMessage(
        payload=payload,
        certificate=certificate,
        signature=keys.sign(payload),
    )
