"""Checkpoint container: the text layout shared by every learner checkpoint.

    <magic line>            names the format, e.g. ``uavmec-qtable v1``
    meta <key>=<value>      one line per metadata entry, sorted by key
    agents <N>
    agent <i> <header>      N blocks: a header line, then the block's body lines

A format is its magic line plus what its agent headers and bodies hold;
``tabular`` and ``nnet`` write and parse those.  No body line may begin with
``agent ``, since that starts the next block.  The file always ends with a
newline, so a file cut inside its last line is refused as truncated.
Checkpoints and reports are written whole or not at all (``write_atomic``).
"""

from __future__ import annotations

import os


def write_atomic(path, text: str) -> None:
    """Write ``text`` (newlines as given) to a temporary file in the same
    directory, then move it over ``path``; a failed write removes it and
    leaves any earlier file as it was."""
    head, name = os.path.split(os.fspath(path))
    tmp = os.path.join(head, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def write_checkpoint(path, magic: str, metadata: dict | None, blocks: list) -> None:
    """Write ``blocks``, one ``(header, body lines)`` pair per agent."""
    lines = [magic]
    lines.extend(f"meta {k}={v}" for k, v in sorted((metadata or {}).items()))
    lines.append(f"agents {len(blocks)}")
    for i, (header, body) in enumerate(blocks):
        lines.append(f"agent {i} {header}")
        lines.extend(body)
    write_atomic(path, "\n".join(lines) + "\n")


def read_magic(path) -> str:
    """The first line of a file, which names a checkpoint's format.  A byte
    that is not UTF-8 reads as U+FFFD, so such a line names no format."""
    with open(path, encoding="utf-8", errors="replace") as fh:
        return fh.readline().strip()


def _is_count(field: str) -> bool:
    """ASCII digits only: ``str.isdigit`` also takes "²" and "١"."""
    return field.isascii() and field.isdigit()


def read_checkpoint(path, magic: str, parse_block) -> tuple[dict, list]:
    """(metadata, ``parse_block(header, body lines)`` of each agent) of a
    ``magic`` file; a ``parse_block`` ValueError is raised again with the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError:
        raise ValueError(f"malformed checkpoint, not UTF-8 text: {path}") from None
    lines = text.splitlines()
    if not lines or lines[0] != magic:
        raise ValueError(f"not a {magic} checkpoint: {path}")
    if not text.endswith("\n"):
        raise ValueError(f"truncated checkpoint, no final newline: {path}")
    meta: dict = {}
    i = 1
    while i < len(lines) and lines[i].startswith("meta "):
        k, sep, v = lines[i][5:].partition("=")
        if not sep:
            raise ValueError(f"malformed checkpoint, meta line without '=': {path}")
        meta[k] = v
        i += 1
    count = lines[i].split() if i < len(lines) else []
    if len(count) != 2 or count[0] != "agents" or not _is_count(count[1]):
        raise ValueError(f"malformed checkpoint, no agent count: {path}")
    num_agents = int(count[1])
    blocks: list = []
    for line in lines[i + 1:]:
        if line.startswith("agent "):
            fields = line.split(" ", 2)
            if len(fields) != 3 or not _is_count(fields[1]):
                raise ValueError(f"malformed checkpoint, agent line without index and header: {path}")
            _, index, header = fields
            if int(index) != len(blocks):
                raise ValueError(f"malformed checkpoint, agent {index} out of order: {path}")
            blocks.append((header, []))
        elif blocks:
            blocks[-1][1].append(line)
        else:
            raise ValueError(f"malformed checkpoint, body before any agent: {path}")
    if len(blocks) != num_agents:
        raise ValueError(f"checkpoint declares {num_agents} agents, holds {len(blocks)}: {path}")
    try:
        return meta, [parse_block(header, body) for header, body in blocks]
    except ValueError as exc:
        raise ValueError(f"malformed checkpoint, {exc}: {path}") from None
