"""The JSON serializer and reader every document shares: sorted keys,
compact or indented by two out; one object, integers type-checked, in."""

import json

from .errors import FormatError


def dumps(doc, pretty: bool = False) -> str:
    return json.dumps(doc, indent=2 if pretty else None, sort_keys=True)


def loads(text: str) -> dict:
    """The JSON object in ``text``; FormatError for anything else."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"not JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FormatError("expected a JSON object")
    return doc


def integer(value, name: str) -> int:
    """``value`` when it is a JSON integer (not a bool, float or string)."""
    if type(value) is not int:
        raise FormatError(f"{name} is not a JSON integer: {json.dumps(value)}")
    return value


class JsonDoc:
    """``dumps`` from ``to_json_dict``; ``loads`` from ``from_json_dict``."""

    def dumps(self, pretty: bool = False) -> str:
        return dumps(self.to_json_dict(), pretty)

    @classmethod
    def loads(cls, text: str):
        return cls.from_json_dict(loads(text))
