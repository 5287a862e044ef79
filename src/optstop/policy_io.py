"""Lossless text persistence for trained stopping policies.

File layout: a format/version line, a sha256 line covering everything after
it, then a canonical JSON payload. Floats go through Python's shortest
round-trip repr, so a load-save-load cycle reproduces bitwise-identical
predictions.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from .lsm import StoppingPolicy
from .model import check_types
from .regression import Regressor

FORMAT_LINE = "optstop-policy v1"
# The payload's keys, each with a value of the JSON type it must have.
_PAYLOAD_TYPES = {"format_version": 1, "horizon": 1, "metadata": {}, "regressors": []}


class PolicyFormatError(ValueError):
    """Raised on version mismatch, checksum failure, or a malformed file."""


def policy_to_text(policy: StoppingPolicy) -> str:
    payload = json.dumps(
        {
            "format_version": 1,
            "horizon": policy.horizon,
            "metadata": policy.metadata,
            "regressors": [r.to_dict() for r in policy.regressors],
        },
        sort_keys=True,
        indent=None,
        separators=(",", ":"),
    )
    digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    return f"{FORMAT_LINE}\nsha256 {digest}\n{payload}\n"


def policy_from_text(text: str) -> StoppingPolicy:
    lines = text.split("\n", 2)
    if len(lines) < 3:
        raise PolicyFormatError("truncated policy file")
    if lines[0] != FORMAT_LINE:
        raise PolicyFormatError(f"unsupported policy format line {lines[0]!r}")
    if not lines[1].startswith("sha256 "):
        raise PolicyFormatError("missing checksum line")
    declared = lines[1][len("sha256 "):].strip()
    payload = lines[2].rstrip("\n")
    actual = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    if actual != declared:
        raise PolicyFormatError("checksum mismatch: policy file corrupted or truncated")
    try:
        data = json.loads(payload)
    except json.JSONDecodeError as exc:
        raise PolicyFormatError("malformed policy payload") from exc
    try:
        check_types(data, _PAYLOAD_TYPES, "policy payload", required=_PAYLOAD_TYPES)
    except ValueError as exc:
        raise PolicyFormatError(str(exc)) from exc
    if data["format_version"] != 1:
        raise PolicyFormatError(f"unsupported payload version {data['format_version']}")
    regressors = []
    for t, d in enumerate(data["regressors"]):
        try:
            regressors.append(Regressor.from_dict(d))
        except (TypeError, ValueError) as exc:
            raise PolicyFormatError(f"regressor of epoch {t}: {exc}") from exc
    try:
        return StoppingPolicy(data["horizon"], regressors, data["metadata"])
    except ValueError as exc:
        raise PolicyFormatError(f"malformed policy payload: {exc}") from exc


def save_policy(policy: StoppingPolicy, path) -> None:
    Path(path).write_text(policy_to_text(policy), encoding="utf-8")


def load_policy(path) -> StoppingPolicy:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise PolicyFormatError(f"cannot read policy file: {exc}") from exc
    return policy_from_text(text)
