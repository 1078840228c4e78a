"""Counter-based random streams keyed by (seed, purpose, indices).

Every stochastic routine in this package draws from a stream derived here.
A stream is identified by the master seed plus an arbitrary tuple of string
and integer key parts; the same key always yields the same stream, no matter
in which order streams are created or on which thread they are consumed.
"""

import hashlib

import numpy as np

__all__ = ["stream", "stream_key"]


def _key_int(value, what: str, kind: str = "an integer") -> bytes:
    """An integer (numpy ones included; bools and floats are not) as the 16
    signed bytes of a key, else TypeError or ValueError naming `what`."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{what} must be {kind}, got {value!r}")
    try:
        return int(value).to_bytes(16, "big", signed=True)
    except OverflowError:
        raise ValueError(f"{what} must lie in [-2**127, 2**127), got {value!r}") from None


def stream_key(seed: int, *parts) -> int:
    """Derive a 128-bit Philox key from a master seed and key parts.

    The seed and integer parts are integers in [-2**127, 2**127); parts may
    also be strings. The encoding is length-prefixed so distinct part tuples
    never collide.
    """
    h = hashlib.sha256()
    h.update(_key_int(seed, "stream seed"))
    for part in parts:
        if isinstance(part, str):
            data = part.encode("utf-8")
            h.update(b"s" + len(data).to_bytes(4, "big") + data)
        else:
            h.update(b"i" + _key_int(part, "stream key part", "a string or an integer"))
    return int.from_bytes(h.digest()[:16], "big")


def stream(seed: int, *parts) -> np.random.Generator:
    """Return an independent counter-based generator for (seed, *parts)."""
    return np.random.Generator(np.random.Philox(key=stream_key(seed, *parts)))
