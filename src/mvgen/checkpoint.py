"""MVCKPT checkpoint container.

Layout: magic "MVCKPT", version u32 LE, header length u64 LE, JSON header
(config echo plus a section table of name/shape/offset), then the raw
little-endian float32 blobs. Offsets are element counts into the blob region.
float32 payloads round-trip bit-exactly. Every file mvgen writes goes through
`write_artifact`: a temp file next to it replaces the old file once complete.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os

import numpy as np

from .configs import ConfigError, parse_config

MAGIC = b"MVCKPT"
VERSION = 1


class ArtifactError(ValueError):
    """An artifact that cannot be read: bad magic or version, cut short,
    malformed, of the wrong kind, or with a section of the wrong shape."""


class _Sections(dict):
    def __missing__(self, name):
        raise ArtifactError(f"checkpoint has no section {name!r}")


def encode_checkpoint(config: dict, arrays: dict[str, np.ndarray]) -> bytes:
    sections = []
    offset = 0
    blobs = []
    for name in arrays:
        arr = np.ascontiguousarray(arrays[name], dtype="<f4")
        sections.append({"name": name, "shape": list(arr.shape), "offset": offset})
        offset += arr.size
        blobs.append(arr.tobytes())
    header = json.dumps({"config": config, "sections": sections},
                        sort_keys=True, separators=(",", ":")).encode("utf-8")
    return b"".join([
        MAGIC,
        VERSION.to_bytes(4, "little"),
        len(header).to_bytes(8, "little"),
        header,
        *blobs,
    ])


def decode_checkpoint(blob: bytes) -> tuple[dict, dict[str, np.ndarray]]:
    if blob[:6] != MAGIC:
        raise ArtifactError("not an MVCKPT checkpoint")
    version = int.from_bytes(blob[6:10], "little")
    if version != VERSION:
        raise ArtifactError(f"unsupported checkpoint version {version}")
    header_len = int.from_bytes(blob[10:18], "little")
    base = 18 + header_len
    if len(blob) < base:
        raise ArtifactError(f"checkpoint header of {header_len} bytes; the file has {len(blob)}")
    try:
        header = json.loads(blob[18:base].decode("utf-8"))
        config, sections = header["config"], header["sections"]
    except (ValueError, KeyError, TypeError, RecursionError) as err:
        raise ArtifactError(f"unreadable checkpoint header: {err}") from err
    if not isinstance(config, dict) or not isinstance(sections, list):
        raise ArtifactError("checkpoint header needs a config object and a section list")
    arrays = _Sections()
    for section in sections:
        entry = section if isinstance(section, dict) else {}
        name, shape, offset = entry.get("name"), entry.get("shape"), entry.get("offset")
        if not (type(name) is str and isinstance(shape, list)
                and all(type(n) is int and n >= 0 for n in [offset, *shape])):
            raise ArtifactError(f"malformed checkpoint section {json.dumps(section)[:80]}")
        count = math.prod(shape)
        start = base + offset * 4
        if start + count * 4 > len(blob):
            raise ArtifactError(f"checkpoint section {name!r} runs past the "
                                f"end of the file ({len(blob)} bytes)")
        arr = np.frombuffer(blob, dtype="<f4", count=count, offset=start)
        arrays[name] = arr.reshape(shape).copy()
    return config, arrays


def write_artifact(path: str | os.PathLike, blob: bytes) -> None:
    """Write blob to path atomically, so a failed write keeps the old file."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def write_checkpoint(path: str | os.PathLike, config: dict, arrays: dict[str, np.ndarray]) -> None:
    write_artifact(path, encode_checkpoint(config, arrays))


def read_artifact(path: str | os.PathLike, decode):
    """decode(the file's bytes); an ArtifactError names the file."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except FileNotFoundError:
        raise
    except OSError as err:  # a directory, a name too long, no permission
        raise ArtifactError(f"{os.fspath(path)}: {err.strerror}") from None
    try:
        return decode(blob)
    except ArtifactError as err:
        raise ArtifactError(f"{os.fspath(path)}: {err}") from None


def read_checkpoint(path: str | os.PathLike) -> tuple[dict, dict[str, np.ndarray]]:
    return read_artifact(path, decode_checkpoint)


def checkpoint_hash(path: str | os.PathLike) -> str:
    with open(path, "rb") as fh:
        return hashlib.blake2b(fh.read(), digest_size=16).hexdigest()


# -- model checkpoints: a config dataclass plus named parameters ----------------


def param_arrays(params: dict, optimizer_state: bool) -> dict[str, np.ndarray]:
    """One section per parameter, each followed by its Adam state when asked."""
    arrays: dict[str, np.ndarray] = {}
    for name, p in params.items():
        arrays[name] = p.values
        if optimizer_state:
            arrays[f"opt.{name}.m"] = p.m
            arrays[f"opt.{name}.v"] = p.v
            arrays[f"opt.{name}.step"] = np.array(float(p.step))
    return arrays


def section(arrays: dict[str, np.ndarray], name: str, shape: tuple, dtype) -> np.ndarray:
    """Section `name` as dtype; ArtifactError unless it has `shape`."""
    arr = arrays[name]
    if arr.shape != tuple(shape):
        raise ArtifactError(f"checkpoint section {name!r} has shape {arr.shape}, "
                            f"the model expects {tuple(shape)}")
    return arr.astype(dtype)


def load_params(params: dict, arrays: dict[str, np.ndarray], dtype) -> None:
    """Set each parameter, and its Adam state where saved, from the sections."""
    for name, p in params.items():
        shape = p.values.shape
        p.values = section(arrays, name, shape, dtype)
        if f"opt.{name}.m" in arrays:
            p.m = section(arrays, f"opt.{name}.m", shape, dtype)
            p.v = section(arrays, f"opt.{name}.v", shape, dtype)
            p.step = int(arrays[f"opt.{name}.step"].reshape(-1)[0])


def save_model(path: str | os.PathLike, kind: str, config, arrays: dict[str, np.ndarray],
               extra_config: dict | None = None, train_step: int | None = None) -> None:
    """Write a model checkpoint: the config dataclass, its kind, extras and the step."""
    header = dataclasses.asdict(config)
    header["kind"] = kind
    if extra_config:
        header.update(extra_config)
    if train_step is not None:
        header["train_step"] = train_step
    write_checkpoint(path, header, arrays)


def load_model(path: str | os.PathLike, kind: str, config_cls):
    """Read a checkpoint of `kind` -> (config_cls instance, raw config, sections)."""
    config, arrays = read_checkpoint(path)
    if config.get("kind") != kind:
        raise ArtifactError(f"{os.fspath(path)}: checkpoint holds a {config.get('kind')}, "
                            f"not a {kind}")
    try:
        return config_from(config_cls, config), config, arrays
    except ConfigError as err:
        raise ArtifactError(f"{os.fspath(path)}: {err}") from None


def config_from(cls, mapping: dict, **derived):
    """A cls from the entries of mapping that name its fields, plus derived
    ones, typed as a config file is (`configs.parse_config`)."""
    names = {f.name for f in dataclasses.fields(cls)}
    return parse_config(cls, {**{k: v for k, v in mapping.items() if k in names}, **derived},
                        cls.__name__)
