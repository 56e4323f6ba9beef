"""Binary PGM (P5) read/write, 8-bit grayscale, values quantized by round(v*255)."""

from __future__ import annotations

import os

import numpy as np

from .checkpoint import ArtifactError, read_artifact, write_artifact


def encode_pgm(values: np.ndarray) -> bytes:
    if values.ndim != 2:
        raise ValueError("PGM encoding expects a 2D array")
    quantized = np.clip(np.rint(np.asarray(values, dtype=np.float64) * 255.0), 0, 255)
    data = quantized.astype(np.uint8)
    h, w = data.shape
    return f"P5\n{w} {h}\n255\n".encode("ascii") + data.tobytes()


def decode_pgm(blob: bytes) -> np.ndarray:
    """Returns values in [0, 1] as float64."""
    if not blob.startswith(b"P5"):
        raise ArtifactError("not a binary PGM (P5) file")
    fields: list[int] = []
    pos = 2
    while len(fields) < 3:
        while blob[pos:pos + 1].isspace():
            pos += 1
        if blob[pos:pos + 1] == b"#":  # comment line, to the end if cut short
            pos = blob.find(b"\n", pos) + 1 or len(blob)
            continue
        start = pos
        while pos < len(blob) and not blob[pos:pos + 1].isspace():
            pos += 1
        if not blob[start:pos].isdigit():
            raise ArtifactError(f"PGM header cut short or malformed at byte {start}")
        fields.append(int(blob[start:pos]))
    pos += 1  # single whitespace after maxval
    w, h, maxval = fields
    if maxval != 255:
        raise ArtifactError(f"unsupported PGM maxval {maxval}")
    if min(w, h) < 1 or len(blob) < pos + h * w:
        raise ArtifactError(f"PGM of {w}x{h} pixels; the file has {len(blob)} bytes")
    data = np.frombuffer(blob, dtype=np.uint8, count=h * w, offset=pos)
    return data.reshape(h, w).astype(np.float64) / 255.0


def write_pgm(path: str | os.PathLike, values: np.ndarray) -> None:
    write_artifact(path, encode_pgm(values))


def read_pgm(path: str | os.PathLike) -> np.ndarray:
    return read_artifact(path, decode_pgm)
