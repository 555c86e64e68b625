"""Reading and writing artifact files: UTF-8 text with LF line ends, and JSON
with two-space indents, sorted keys and a closing newline."""

import json

from .errors import FormatError


def read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def read_text(path: str) -> str:
    """The text of a file, as decode_text reads its bytes."""
    return decode_text(read_bytes(path), path)


def decode_text(raw: bytes, source: str) -> str:
    """raw as UTF-8 text with universal newlines: CRLF and lone CR become LF.
    Bytes that are not UTF-8 are a FormatError at the line of the first bad one."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as e:
        head = raw[: e.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise FormatError(f"{source}:{line}: not UTF-8 text") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def dump_json(payload) -> str:
    """The artifact JSON format. The graph, model and learned-model writers
    fill list_template and array_template text with the same bytes."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def list_template(item: str, count: int, indent: int) -> str:
    """The dump_json layout of a list of count items, each the text item, for
    a list whose closing bracket is indent spaces in."""
    if not count:
        return "[]"
    return "[" + ",".join(["\n" + " " * (indent + 2) + item] * count) + "\n" + " " * indent + "]"


def array_template(item: str, shape: tuple[int, ...], indent: int) -> str:
    """The dump_json layout of a nested list of the given shape, its items in
    row-major order, for a list whose closing bracket is indent spaces in."""
    for depth in reversed(range(len(shape))):
        item = list_template(item, shape[depth], indent + 2 * depth)
    return item


def require_fields(raw, fields, source: str) -> dict:
    """raw, a decoded JSON value, when it is an object holding every field;
    otherwise a FormatError at line 1 that names the first field it lacks."""
    if not isinstance(raw, dict):
        raise FormatError(f"{source}:1: expected a JSON object")
    missing = next((key for key in fields if key not in raw), None)
    if missing is not None:
        raise FormatError(f"{source}:1: missing required field {missing!r}")
    return raw


def decode_json(text: str, source: str):
    """The value of a JSON text; a syntax error is a FormatError at its line,
    and a text the decoder cannot hold one at line 1."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise FormatError(f"{source}:{e.lineno}: invalid JSON: {e.msg}") from None
    except (RecursionError, ValueError) as e:
        # Nesting past the recursion limit, or an integer above the digit
        # limit; JSONDecodeError, also a ValueError, keeps its line above.
        raise FormatError(f"{source}:1: invalid JSON: {e}") from None
