"""Schema-versioned JSON files.

Every persisted document is one compact JSON object with sorted keys and a
"schema" marker.  Loading checks the marker before anything else reads the
document, and any structural surprise in the parsed body is a CorruptFile.
NaN and the infinities are not JSON numbers: they are neither written nor read.
"""

import json

from .errors import CorruptFile, RestrictedWithoutPermittedIps, SchemaMismatch


def dump_versioned(path, schema: str, body: dict) -> None:
    """Write body plus its schema marker as compact, key-sorted JSON."""
    with open(path, "w") as fh:
        json.dump({"schema": schema, **body}, fh, separators=(",", ":"),
                  sort_keys=True, allow_nan=False)


def _non_finite(token: str):
    raise ValueError(f"{token} is not a JSON number")


def load_versioned(path, schema: str, what: str, parse):
    """Read a document written by dump_versioned and return parse(doc).

    what names the file in error messages; a foreign schema raises
    SchemaMismatch, and a KeyError, TypeError, ValueError or restricted
    entry without permitted IPs from parse becomes CorruptFile.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh, parse_constant=_non_finite)
    except ValueError as exc:  # bad JSON, bad UTF-8 or a non-finite token
        raise CorruptFile(f"{what} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "schema" not in doc:
        raise CorruptFile(f"{what} has no schema marker")
    if doc["schema"] != schema:
        raise SchemaMismatch(f"{what}: expected {schema}, found {doc['schema']!r}")
    try:
        return parse(doc)
    except (KeyError, TypeError, ValueError,
            RestrictedWithoutPermittedIps) as exc:
        raise CorruptFile(f"{what} record malformed: {exc}") from exc


def str_tuple(value, name: str) -> tuple[str, ...]:
    """A parsed JSON list of strings as a tuple; anything else, a string
    included, is a TypeError."""
    if not isinstance(value, list) or not all(isinstance(s, str) for s in value):
        raise TypeError(f"{name} must be a list of strings, got {value!r}")
    return tuple(value)
