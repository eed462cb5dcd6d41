"""Cryptographic substrate for the verification data structures.

The paper signs Merkle roots (one-signature mode), subdomain digests
(multi-signature mode) and consecutive-pair digests (signature mesh baseline)
with RSA or DSA, and uses SHA-256 as its one-way hash.  Everything here is
implemented from scratch on top of the standard library so the reproduction
has no external crypto dependency:

* :mod:`repro.crypto.hashing` -- SHA-256 digests with operation counting
  (split into logical operations and physical invocations).
* :mod:`repro.crypto.primes` -- Miller-Rabin primality testing and prime
  generation used by the key generators.
* :mod:`repro.crypto.rsa` -- RSA key generation, PKCS#1-v1.5 style signing.
* :mod:`repro.crypto.dsa` -- DSA key generation and signing with
  deterministic (RFC-6979 style) nonces.
* :mod:`repro.crypto.signer` -- a pluggable :class:`Signer` interface and a
  registry so the data owner can pick ``"rsa"``, ``"dsa"`` or the test-only
  ``"hmac"`` scheme by name.
* :mod:`repro.crypto.serialization` -- canonical byte encodings of records,
  functions and subdomains so digests are stable across processes.
"""

from repro.crypto.hashing import HashFunction, sha256_hex, sha256, sha256_many
from repro.crypto.primes import is_probable_prime, generate_prime
from repro.crypto.rsa import RSAKeyPair, RSAPublicKey, RSAPrivateKey, generate_rsa_keypair
from repro.crypto.dsa import DSAKeyPair, DSAPublicKey, DSAPrivateKey, DSAParameters, generate_dsa_keypair
from repro.crypto.signer import (
    Signer,
    Verifier,
    SignatureScheme,
    KeyPair,
    make_signer,
    available_schemes,
)
from repro.crypto.serialization import (
    encode_bytes,
    encode_float,
    encode_int,
    encode_str,
    encode_float_vector,
    encode_sequence,
)

__all__ = [
    "HashFunction",
    "sha256_hex",
    "sha256",
    "sha256_many",
    "is_probable_prime",
    "generate_prime",
    "RSAKeyPair",
    "RSAPublicKey",
    "RSAPrivateKey",
    "generate_rsa_keypair",
    "DSAKeyPair",
    "DSAPublicKey",
    "DSAPrivateKey",
    "DSAParameters",
    "generate_dsa_keypair",
    "Signer",
    "Verifier",
    "SignatureScheme",
    "KeyPair",
    "make_signer",
    "available_schemes",
    "encode_bytes",
    "encode_float",
    "encode_int",
    "encode_str",
    "encode_float_vector",
    "encode_sequence",
]
