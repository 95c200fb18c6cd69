"""The dict form of a config or stats dataclass: its fields, in declaration order."""

from __future__ import annotations

from dataclasses import asdict, fields


class Record:
    """Base for dataclasses whose dict form is exactly their fields."""

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict):
        """Build from the keys of ``data`` that are fields; other keys (retired or unknown) are ignored."""
        names = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in names})
