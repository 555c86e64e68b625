"""Reading and writing artifact files: UTF-8 text with LF line ends, and JSON
with two-space indents, sorted keys and a closing newline."""

import json

from .errors import FormatError


def read_text(path: str) -> str:
    """The text of a file, with universal newlines; bytes that are not UTF-8
    are a FormatError at the line of the first bad one."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as e:
        # read() decodes the whole file in one call, so e.start is the bad
        # byte's offset; the bytes are read only now, to count lines before it.
        with open(path, "rb") as fh:
            head = fh.read()[: e.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise FormatError(f"{path}:{line}: not UTF-8 text") from None


def write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def dump_json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


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
