"""The `key=value` text of config files, the echoed config, checkpoint text
blocks and the `eval` metrics block: one key per line, keys sorted.
"""

from __future__ import annotations


def render(value) -> str:
    """Floats by `repr` (exact), bools as 0/1 and tuples by `,`."""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return repr(float(value))  # float(): a numpy scalar's repr names its type
    if isinstance(value, (tuple, list)):
        return ",".join(map(render, value))
    return str(value)


def write(pairs: dict) -> str:
    """One `key=value` line per entry, sorted by key; None values are left out."""
    return "".join(f"{k}={render(pairs[k])}\n" for k in sorted(pairs)
                   if pairs[k] is not None)


def read(text: str) -> dict:
    """Parse lines into a dict of strings, skipping blank lines and `#`
    comments; each line splits at its first `=`. A line without one raises
    ValueError naming its line number."""
    pairs = {}
    for ln, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {ln}: expected key=value, got {line!r}")
        k, _, v = line.partition("=")
        pairs[k.strip()] = v.strip()
    return pairs


def ints(text: str) -> tuple:
    """Decode comma-separated integers; empty items are skipped."""
    return tuple(int(p) for p in text.split(",") if p)
