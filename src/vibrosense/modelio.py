"""Versioned text serialization with lossless (hex) float encoding.

The one format for fitted forecasters and classifiers.
"""

from __future__ import annotations

import json
from typing import Any, Tuple

import numpy as np

from .core import ContractError

FORMAT_NAME = "vibrosense-model"
FORMAT_VERSION = 1
_TAGS = frozenset({"~f", "~a", "~ai"})  # the keys that mark a float or an array


def to_jsonable(obj: Any) -> Any:
    if obj is None or isinstance(obj, (bool, str)):
        return obj
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return {"~f": float(obj).hex()}
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind == "u":  # loads back as int64, which 2**63 and up overflow
            raise ContractError(f"cannot serialize unsigned array of dtype {obj.dtype}")
        if obj.dtype.kind in "ib":
            return {"~ai": obj.tolist(), "shape": list(obj.shape)}
        return {"~a": [v.hex() for v in obj.ravel().tolist()], "shape": list(obj.shape)}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, dict):
        bad = [k for k in obj if not isinstance(k, str)]
        if bad:  # str() would merge 1 and "1" into one key
            raise ContractError(f"dict keys must be strings, found {bad[0]!r}")
        out = {k: to_jsonable(v) for k, v in obj.items()}
        if _TAGS & out.keys():
            raise ContractError(f"dict keys {sorted(_TAGS & out.keys())} are reserved for tagged values")
        return out
    raise ContractError(f"cannot serialize value of type {type(obj).__name__}")


def from_jsonable(obj: Any) -> Any:
    if isinstance(obj, dict):
        if "~f" in obj:
            return float.fromhex(obj["~f"])
        if "~a" in obj:
            flat = np.fromiter(map(float.fromhex, obj["~a"]), np.float64, count=len(obj["~a"]))
            return flat.reshape(obj["shape"])
        if "~ai" in obj:
            return np.array(obj["~ai"], dtype=np.int64).reshape(obj["shape"])
        return {k: from_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [from_jsonable(v) for v in obj]
    return obj


def save_model(kind: str, payload: dict, path) -> None:
    doc = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "kind": kind,
        "payload": to_jsonable(payload),
    }
    with open(path, "w") as fh:
        fh.writelines(_encode(doc, ""))
        fh.write("\n")


def _encode(value, indent: str):
    """The text json.dump(value, fh, sort_keys=True, indent=1) writes,
    `indent` deep, in chunks (no file's whole text is held at once). json
    never uses its C encoder when indent is set, so a list of only strings or
    only ints (a ~a or ~ai array) goes through it here in one call."""
    inner = indent + " "
    if value and isinstance(value, dict):
        head = "{"
        for key in sorted(value):
            yield f"{head}\n{inner}{json.dumps(key)}: "
            yield from _encode(value[key], inner)
            head = ","
        yield f"\n{indent}}}"
    elif value and isinstance(value, list):
        if {*map(type, value)} in ({str}, {int}):
            yield "[\n" + inner
            yield json.dumps(value, separators=(",\n" + inner, ": "))[1:-1]
        else:
            head = "["
            for item in value:
                yield f"{head}\n{inner}"
                yield from _encode(item, inner)
                head = ","
        yield f"\n{indent}]"
    else:  # a scalar, an empty list or an empty dict
        yield json.dumps(value)


def read_json_object(path) -> dict:
    """The top-level object of a JSON file. Bytes that are not UTF-8, invalid
    JSON and any other top-level value are a ContractError naming the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError, JSONDecodeError
        raise ContractError(f"corrupt JSON file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ContractError(f"JSON file {path}: top-level value is {type(doc).__name__}, not an object")
    return doc


def load_model(path, expected_kind: str = None) -> Tuple[str, dict]:
    doc = read_json_object(path)
    for field in ("format", "version", "kind", "payload"):
        if field not in doc:
            raise ContractError(f"model file {path} missing field '{field}'")
    if doc["format"] != FORMAT_NAME:
        raise ContractError(f"unexpected format '{doc['format']}'")
    if doc["version"] != FORMAT_VERSION:
        raise ContractError(f"unsupported model version {doc['version']}")
    if not (isinstance(doc["kind"], str) and isinstance(doc["payload"], dict)):
        raise ContractError(f"model file {path}: kind must be a string and payload an object")
    if expected_kind is not None and doc["kind"] != expected_kind:
        raise ContractError(f"expected kind '{expected_kind}', found '{doc['kind']}'")
    try:
        return doc["kind"], from_jsonable(doc["payload"])
    except (ValueError, TypeError, KeyError, OverflowError) as exc:
        raise ContractError(f"corrupt model file {path}: {exc}") from exc
