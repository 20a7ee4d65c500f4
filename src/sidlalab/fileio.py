"""Canonical JSON text and atomic writes, shared by every artifact writer."""

from __future__ import annotations

import json
import math
import os
from typing import Mapping

import numpy as np

from .errors import ConfigError


def json_text(value) -> str:
    """One line of canonical JSON for a value or a flat or nested mapping.

    Members are separated by ", " and keys by ": " in the mapping's order;
    floats are written with 17 significant digits, so reading them back
    reproduces them bit for bit, and NaN is written as null.  Any other
    non-finite float, which JSON cannot hold, raises ValueError.
    """
    if isinstance(value, Mapping):
        return "{" + ", ".join(
            f"{json_text(str(k))}: {json_text(v)}" for k, v in value.items()) + "}"
    if value is None or isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return "%d" % value
    if isinstance(value, float):
        if math.isnan(value):
            return "null"
        if math.isinf(value):
            raise ValueError(f"JSON cannot hold the non-finite value {value!r}")
        return "%.17g" % value
    raise TypeError(f"no JSON form for {type(value).__name__} {value!r}")


def atomic_write_text(path: str, text: str) -> None:
    """Write text to path via a temp file and rename, so readers never see
    a half-written file.  A missing directory, or a path that is one, is
    a ConfigError; a failed write leaves no temp file behind."""
    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory):
        raise ConfigError(f"cannot write {path}: directory {directory} does not exist")
    if os.path.isdir(path):
        raise ConfigError(f"cannot write {path}: it is a directory")
    tmp = os.path.join(directory, f".{os.path.basename(path)}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
