"""Schema-versioned JSON files.

Every persisted document is one compact JSON object with sorted keys and a
"schema" marker.  Loading checks the marker before anything else reads the
document, and any structural surprise in the parsed body is a CorruptFile.
"""

import json

from .errors import CorruptFile, RestrictedWithoutPermittedIps, SchemaMismatch


def dump_versioned(path, schema: str, body: dict) -> None:
    """Write body plus its schema marker as compact, key-sorted JSON."""
    with open(path, "w") as fh:
        json.dump({"schema": schema, **body}, fh, separators=(",", ":"),
                  sort_keys=True)


def load_versioned(path, schema: str, what: str, parse,
                   mismatch: type = SchemaMismatch):
    """Read a document written by dump_versioned and return parse(doc).

    what names the file in error messages; a foreign schema raises
    mismatch, and a KeyError, TypeError, ValueError or restricted entry
    without permitted IPs from parse becomes CorruptFile.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CorruptFile(f"{what} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "schema" not in doc:
        raise CorruptFile(f"{what} has no schema marker")
    if doc["schema"] != schema:
        raise mismatch(f"expected {schema}, found {doc['schema']!r}")
    try:
        return parse(doc)
    except (KeyError, TypeError, ValueError,
            RestrictedWithoutPermittedIps) as exc:
        raise CorruptFile(f"{what} record malformed: {exc}") from exc
