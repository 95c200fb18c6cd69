"""The dict form of a config or stats dataclass: its fields, in declaration order."""

from __future__ import annotations

from dataclasses import MISSING, asdict, fields


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)  # ``true`` and ``false`` count only as bools


# Whether a field declared with each type accepts a value from a dict; an int stands for a float.
_ACCEPTS = {
    "int": _is_int,
    "float": lambda value: _is_int(value) or isinstance(value, float),
    "str": lambda value: isinstance(value, str),
    "str | None": lambda value: value is None or isinstance(value, str),
    "bool": lambda value: isinstance(value, bool),
    "tuple[str, ...]": lambda value: isinstance(value, list) and all(isinstance(item, str) for item in value),
    "dict[str, int]": lambda value: isinstance(value, dict) and all(map(_is_int, value.values())),
}


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
        ``tuple[str, ...]`` field takes a list of strings. An object overlays its field's default, both
        for a ``dict[str, int]`` field and for a section, a field whose default is a ``Record``; a section
        is then built by its own class's ``from_dict``.
        """
        kept = {}
        for f in fields(cls):
            if f.name not in data:
                if f.default is MISSING and f.default_factory is MISSING:
                    raise cls.error(f"config field {f.name!r} of {cls.__name__} is missing")
                continue
            value = data[f.name]
            default = f.default if f.default_factory is MISSING else f.default_factory()
            if isinstance(default, Record):  # a section
                if not isinstance(value, dict):
                    raise cls.error(f"config section {f.name!r} must be an object, got {value!r}")
                value = type(default).from_dict({**default.to_dict(), **value})
            elif not _ACCEPTS.get(f.type, lambda _: True)(value):
                raise cls.error(f"config field {f.name!r} of {cls.__name__} must be {f.type}, got {value!r}")
            elif isinstance(default, dict):
                value = {**default, **value}
            kept[f.name] = tuple(value) if isinstance(value, list) else value
        return cls(**kept)

    def check(self, rule: str, holds, *names: str) -> None:
        """Raise ``self.error`` naming the first field of ``names`` whose value ``holds`` refuses, in the form
        ``from_dict`` uses: the field ``must be <rule>``."""
        for name in names:
            value = getattr(self, name)
            if not holds(value):
                raise self.error(f"config field {name!r} of {type(self).__name__} must be {rule}, got {value!r}")
