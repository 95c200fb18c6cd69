"""The dict form of a config or stats dataclass: its fields, in declaration order."""

from __future__ import annotations

from dataclasses import asdict, fields

# The values a field declared with each type accepts from a dict; an int stands for a float.
_ACCEPTS = {"int": int, "float": (int, float), "str": str, "bool": bool}


class Record:
    """Base for dataclasses whose dict form is exactly their fields."""

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict):
        """Build from the keys of ``data`` that are fields; other keys (retired or unknown) are ignored.

        A value of the wrong type for its field's declared type is a ``ValueError`` naming the field;
        ``true`` and ``false`` count only as bools.
        """
        kept = {}
        for f in fields(cls):
            if f.name not in data:
                continue
            value, accepts = data[f.name], _ACCEPTS.get(f.type)
            if accepts is not None and not (isinstance(value, accepts) and isinstance(value, bool) == (f.type == "bool")):
                raise ValueError(f"config field {f.name!r} of {cls.__name__} must be {f.type}, got {value!r}")
            kept[f.name] = value
        return cls(**kept)
