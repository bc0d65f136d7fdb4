"""Crash-safe file output shared by every artifact writer.

A process killed mid-``write()`` leaves a truncated file; a campaign that
then trusts that file (a half-written ``BENCH_*.json``, a torn trace, a
clipped audit counterexample) fails much later and much more confusingly
than the crash itself.  Every artifact the project writes therefore goes
through :func:`write_text_atomic` / :func:`write_json_atomic`: the
payload is written to a temporary file *in the destination directory*
(same filesystem, so the final rename cannot cross devices), flushed and
fsynced, and then moved over the destination with :func:`os.replace`.
Readers see either the old complete file or the new complete file, never
a prefix of the new one.  The temporary file is created with mode 0666
less the umask, as :func:`open` creates files, so an artifact is as
readable as the journal beside it.

The journal (:mod:`repro.batch.journal`) is the one writer that does not
fit this shape -- it appends incrementally by design -- and handles its
own durability with per-record framing and fsync intervals instead.

The journal's lines and the result cache's entries are both *sealed*
(:func:`seal` / :func:`unseal`): one JSON object whose last member is
the body and whose ``"c"`` is the CRC-32 of the body's bytes exactly as
written, so a reader checks the slice it read instead of re-encoding
what it parsed.
"""

from __future__ import annotations

import json
import os
import zlib
from typing import Any, Optional, Union

__all__ = ["write_text_atomic", "write_json_atomic", "fsync_path", "seal", "unseal"]

PathLike = Union[str, "os.PathLike[str]"]


def fsync_path(path: PathLike) -> None:
    """Best-effort fsync of an existing file or directory.

    Directory fsync pins the rename itself; platforms that cannot open a
    directory (Windows) or fsync one (some network filesystems) degrade
    to a no-op rather than an error.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def write_text_atomic(path: PathLike, text: str, durable: bool = True) -> str:
    """Atomically replace ``path`` with ``text``; returns the final path.

    ``durable=True`` fsyncs the temporary file before the rename (and the
    directory after), so the content survives a power cut, not just a
    process kill.  Writers on hot paths may pass ``durable=False`` to
    keep the atomicity without the synchronous disk barrier.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    tmp = os.path.join(
        directory, f".{os.path.basename(path)}.{os.urandom(6).hex()}.tmp"
    )
    # Not tempfile.mkstemp, which makes the file 0600 whatever the umask:
    # the kernel applies the umask to 0666, as open() does for the journal.
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    fd = os.open(tmp, flags, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
            if durable:
                fh.flush()
                os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    if durable:
        fsync_path(directory)
    return path


def write_json_atomic(
    path: PathLike,
    payload: Any,
    indent: int | None = 2,
    sort_keys: bool = False,
    durable: bool = True,
    default: Any = None,
) -> str:
    """Atomically write ``payload`` as strict JSON (trailing newline)."""
    text = json.dumps(
        payload,
        indent=indent,
        sort_keys=sort_keys,
        allow_nan=False,
        default=default,
    )
    return write_text_atomic(path, text + "\n", durable=durable)


def seal(key: str, body: str, head: str = "") -> str:
    """``{<head>"c":<crc>,"<key>":<body>}``, the body's CRC-32 sealing it.

    ``body`` is JSON text, kept byte for byte; ``crc`` is the CRC-32 of
    its UTF-8 bytes.  ``head`` holds the members written before the
    seal, each followed by a comma.
    """
    crc = zlib.crc32(body.encode("utf-8"))
    return f'{{{head}"c":{crc},"{key}":{body}}}'


def unseal(raw: bytes, key: str, head: str = "") -> Optional[str]:
    """The body text of a :func:`seal` of ``key`` and ``head``.

    ``None`` when ``raw`` is anything else: another head, a damaged seal
    or a body whose bytes do not match the CRC (which catches every
    change of up to four consecutive bytes).
    """
    prefix = f'{{{head}"c":'.encode("utf-8")
    if not (raw.startswith(prefix) and raw.endswith(b"}")):
        return None
    sep = f',"{key}":'.encode("utf-8")
    at = raw.find(sep, len(prefix))
    if at < 0:
        return None
    crc = raw[len(prefix) : at]
    body = raw[at + len(sep) : -1]
    # A CRC-32 has at most ten digits; bytes.isdigit() is ASCII-only.
    if not (len(crc) <= 10 and crc.isdigit()) or zlib.crc32(body) != int(crc):
        return None
    try:
        return body.decode("utf-8")
    except UnicodeDecodeError:
        return None
