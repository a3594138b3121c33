"""Readers for JSON payloads: every malformed payload raises SchemaError.

The readers check JSON types and list lengths only.  What a value must
satisfy against its graph (shapes, normalisation, completeness) is checked
by the validators of each model family, which serve models built in Python
as well.  ``what`` names the value in the error message.  This module loads
no numpy: ``dist._json_numbers`` and ``dist._json_table`` read numeric arrays.
"""

from .errors import SchemaError

_KINDS = {int: "an integer", str: "a string", list: "a list", dict: "an object"}


def typed(value, kind, what):
    """``value`` when its JSON type is ``kind``: int, str, list or dict.

    A bool is no int here, although Python counts it as one.
    """
    if type(value) is not kind:
        raise SchemaError(f"malformed {what}: expected {_KINDS[kind]}, got {type(value).__name__}")
    return value


def fields(value, what, kinds, optional=()):
    """The values of a JSON object with every field of ``kinds`` and none outside
    ``optional``, in the order of ``kinds``, each of the JSON type that ``kinds``
    gives it."""
    missing = set(kinds).difference(typed(value, dict, what))
    unknown = set(value).difference(kinds, optional)
    if missing or unknown:
        raise SchemaError(f"malformed {what}: missing fields {sorted(missing)}, unknown {sorted(unknown)}")
    return tuple(typed(value[k], kind, f"{what} {k}") for k, kind in kinds.items())


def sizes(value, what, keys):
    """A JSON object mapping each of ``keys``, and nothing else, to an integer."""
    kinds = dict.fromkeys(keys, int)
    return dict(zip(kinds, fields(value, what, kinds)))


def named(value, what, known, kind=dict):
    """A JSON object whose keys, or with ``kind=list`` a list whose strings,
    all name one of ``known``: an entry that names no edge, node or outcome
    would otherwise be silently ignored, or looked up in vain."""
    unknown = [k for k in typed(value, kind, what) if typed(k, str, what) not in known]
    if unknown:
        raise SchemaError(f"malformed {what}: unknown {sorted(unknown)}")
    return value

