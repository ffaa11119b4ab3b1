"""The one JSON serializer: sorted keys, compact or indented by two."""

import json


def dumps(doc, pretty: bool = False) -> str:
    return json.dumps(doc, indent=2 if pretty else None, sort_keys=True)


class JsonDoc:
    """Mixin giving ``dumps`` to any class with a ``to_json_dict``."""

    def dumps(self, pretty: bool = False) -> str:
        return dumps(self.to_json_dict(), pretty)
