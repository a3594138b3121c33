"""Readers for JSON payloads: every malformed payload raises SchemaError.

The readers check JSON types and list lengths only.  What a value must
satisfy against its graph (shapes, normalisation, completeness) is checked
by the validators of each model family, which serve models built in Python
as well.  ``what`` names the value in the error message.
"""

import math

import numpy as np

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


def numbers(value, what, shape, dtype=float):
    """Nested JSON lists of numbers as a numpy array of ``shape``.

    ``shape`` gives the list length at each depth; None takes any length,
    the same for every list at that depth.  With ``dtype=float`` a number is
    a JSON int or float, with ``dtype=int`` an int only, and with
    ``dtype=complex`` a ``[re, im]`` pair of ints or floats.
    """
    dims = list(shape) + [2] * (dtype is complex)
    leaf = (int,) if dtype is int else (int, float)
    flat = []

    def walk(lst, depth):
        typed(lst, list, what)
        if dims[depth] is None:
            dims[depth] = len(lst)
        if len(lst) != dims[depth]:
            raise SchemaError(f"malformed {what}: a list of {len(lst)} entries, expected {dims[depth]}")
        if depth + 1 < len(dims):
            for item in lst:
                walk(item, depth + 1)
        elif all(type(x) in leaf for x in lst):
            flat.extend(lst)
        else:
            raise SchemaError(f"malformed {what}: expected {'integers' if dtype is int else 'numbers'}")

    walk(value, 0)
    try:
        arr = np.array(flat, dtype=np.int64 if dtype is int else float)
    except OverflowError:
        raise SchemaError(f"malformed {what}: a number out of range") from None
    arr = arr.reshape([0 if d is None else d for d in dims])  # None remains below an empty list
    return arr.view(complex)[..., 0] if dtype is complex else arr


def table(value, what, shape):
    """A flat JSON list of numbers, row-major over ``shape``, as a float array of that shape."""
    if min(shape, default=1) < 1:
        raise SchemaError(f"malformed {what}: no table has the sizes {tuple(shape)}")
    return numbers(value, what, (math.prod(shape),)).reshape(shape)
