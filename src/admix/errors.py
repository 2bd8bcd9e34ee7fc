"""Exception types and the input-file reading shared across modules."""


class DivergenceError(RuntimeError):
    """Raised when training produces a non-finite loss or gradient."""


def read_lines(path):
    """Yield ``(lineno, line)`` for each line of the UTF-8 text file ``path``.

    Newlines are universal, as in ``open``, and a leading UTF-8 byte-order
    mark is dropped. A byte that is not UTF-8 raises ``ValueError`` naming
    the file and the line, where the decoder's own error names neither.
    """
    with open(path, "r", encoding="utf-8-sig", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError as exc:  # an escaped byte is a lone surrogate
                byte = ord(line[exc.start]) - 0xDC00
                where = f"{path}: line {lineno}"
                raise ValueError(f"{where}: byte 0x{byte:02x} is not UTF-8") from None
            yield lineno, line
