"""The dict form of a config or stats dataclass: its fields, in declaration order."""

from __future__ import annotations

from dataclasses import MISSING, asdict, fields

# The values a field declared with each type accepts from a dict; an int stands for a float.
_ACCEPTS = {"int": int, "float": (int, float), "str": str, "bool": bool, "tuple[str, ...]": list}


class Record:
    """Base for dataclasses whose dict form is exactly their fields."""

    # What a bad dict form raises; a subclass may name a narrower ``ValueError``.
    error = ValueError

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict):
        """Build from the keys of ``data`` that are fields; other keys (retired or unknown) are ignored.

        A missing field without a default, or a value of the wrong type for its field's declared type,
        is a ``cls.error`` naming the field. ``true`` and ``false`` count only as bools, and a
        ``tuple[str, ...]`` field takes a list of strings.
        """
        kept = {}
        for f in fields(cls):
            if f.name not in data:
                if f.default is MISSING and f.default_factory is MISSING:
                    raise cls.error(f"config field {f.name!r} of {cls.__name__} is missing")
                continue
            value, accepts = data[f.name], _ACCEPTS.get(f.type)
            if accepts is not None and not (
                isinstance(value, accepts)
                and isinstance(value, bool) == (f.type == "bool")
                and (accepts is not list or all(isinstance(item, str) for item in value))
            ):
                raise cls.error(f"config field {f.name!r} of {cls.__name__} must be {f.type}, got {value!r}")
            kept[f.name] = tuple(value) if accepts is list else value
        return cls(**kept)
