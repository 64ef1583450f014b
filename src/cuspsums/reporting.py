"""Deterministic CSV / JSON / SVG emission for the CLI commands.

Byte reproducibility is the contract here: same config, same cache, same
seed must give identical files.  That rules out wall-clock timestamps,
dict iteration order, and locale-dependent float formatting, so floats
go through one pinned ``%.12e`` format (13 significant digits, ``.``
decimal separator), JSON keys are sorted, and the SVG is assembled from
fixed templates with rounded coordinates.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path
from typing import Sequence

FLOAT_FORMAT = "%.12e"

# one fixed color per series slot; wraps around past six series
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def format_value(value) -> str:
    """Render one CSV cell; floats use the pinned scientific format."""
    if isinstance(value, float):
        return FLOAT_FORMAT % value
    return str(value)


def write_csv(path, header: Sequence[str], rows) -> int:
    """RFC 4180 CSV (CRLF, quoted on demand); returns the row count."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    count = 0
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\r\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([format_value(cell) for cell in row])
            count += 1
    return count


def write_json(path, payload) -> None:
    """Sorted-key, indented JSON with a trailing newline."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    path.write_text(text + "\n", encoding="utf-8")


def sha256_file(path) -> str:
    """Hex SHA-256 of the file, read through one reused 1 MiB buffer.

    A fresh 1 MiB bytes object per read is above malloc's mmap threshold,
    so each would be mapped and faulted in anew; hashlib.file_digest,
    which reuses its buffer, needs Python 3.11.
    """
    digest = hashlib.sha256()
    buffer = memoryview(bytearray(1 << 20))
    with open(path, "rb", buffering=0) as handle:
        while size := handle.readinto(buffer):
            digest.update(buffer[:size])
    return digest.hexdigest()


def sha256_text(lines: Sequence[str]) -> str:
    digest = hashlib.sha256("\n".join(lines).encode("utf-8"))
    return digest.hexdigest()


# -- SVG ---------------------------------------------------------------
#
# Hand-rolled rather than pulled from a plotting package: the output
# must be a small static file whose bytes depend only on the data.

_W, _H = 720.0, 540.0
_LEFT, _RIGHT, _TOP, _BOT = 84.0, 696.0, 48.0, 470.0


def _decade_ticks(lo: float, hi: float):
    first = math.floor(lo)
    last = math.ceil(hi)
    return [e for e in range(first, last + 1) if lo - 1e-9 <= e <= hi + 1e-9]


def _scale(value: float, lo: float, hi: float, a: float, b: float) -> float:
    if hi <= lo:
        return (a + b) / 2.0
    return a + (value - lo) * (b - a) / (hi - lo)


def svg_line_plot(series, title: str, x_label: str, y_label: str) -> str:
    """Log-log line plot; series is a list of (label, xs, ys) triples.

    All coordinates must be positive (they are drawn on decade axes).
    Returns the SVG document as a string.
    """
    if not series:
        raise ValueError("svg_line_plot needs at least one series")
    for label, xs, ys in series:
        if len(xs) != len(ys) or not len(xs):
            raise ValueError(f"series {label!r}: need matching non-empty data")
        if any(x <= 0.0 for x in xs) or any(y <= 0.0 for y in ys):
            raise ValueError(f"series {label!r}: log axes need positive data")

    lx = [math.log10(x) for _, xs, _ in series for x in xs]
    ly = [math.log10(y) for _, _, ys in series for y in ys]
    x_lo, x_hi = min(lx) - 0.05, max(lx) + 0.05
    y_lo, y_hi = min(ly) - 0.1, max(ly) + 0.1

    def px(v):
        return _scale(v, x_lo, x_hi, _LEFT, _RIGHT)

    def py(v):
        return _scale(v, y_lo, y_hi, _BOT, _TOP)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W:.0f}" '
        f'height="{_H:.0f}" viewBox="0 0 {_W:.0f} {_H:.0f}">',
        f'<rect width="{_W:.0f}" height="{_H:.0f}" fill="white"/>',
        f'<text x="{(_LEFT + _RIGHT) / 2:.2f}" y="26" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{title}</text>',
    ]
    for e in _decade_ticks(x_lo, x_hi):
        x = px(float(e))
        out.append(f'<line x1="{x:.2f}" y1="{_TOP:.2f}" x2="{x:.2f}" '
                   f'y2="{_BOT:.2f}" stroke="#dddddd" stroke-width="1"/>')
        out.append(f'<text x="{x:.2f}" y="{_BOT + 22:.2f}" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="12">1e{e}</text>')
    for e in _decade_ticks(y_lo, y_hi):
        y = py(float(e))
        out.append(f'<line x1="{_LEFT:.2f}" y1="{y:.2f}" x2="{_RIGHT:.2f}" '
                   f'y2="{y:.2f}" stroke="#dddddd" stroke-width="1"/>')
        out.append(f'<text x="{_LEFT - 8:.2f}" y="{y + 4:.2f}" text-anchor="end" '
                   f'font-family="sans-serif" font-size="12">1e{e}</text>')
    out.append(f'<rect x="{_LEFT:.2f}" y="{_TOP:.2f}" '
               f'width="{_RIGHT - _LEFT:.2f}" height="{_BOT - _TOP:.2f}" '
               f'fill="none" stroke="#333333" stroke-width="1"/>')
    out.append(f'<text x="{(_LEFT + _RIGHT) / 2:.2f}" y="{_H - 14:.2f}" '
               f'text-anchor="middle" font-family="sans-serif" '
               f'font-size="13">{x_label}</text>')
    out.append(f'<text x="20" y="{(_TOP + _BOT) / 2:.2f}" text-anchor="middle" '
               f'font-family="sans-serif" font-size="13" '
               f'transform="rotate(-90 20 {(_TOP + _BOT) / 2:.2f})">'
               f'{y_label}</text>')

    for i, (label, xs, ys) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        pts = " ".join(f"{px(math.log10(x)):.2f},{py(math.log10(y)):.2f}"
                       for x, y in zip(xs, ys))
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                   f'stroke-width="1.5"/>')
        for x, y in zip(xs, ys):
            out.append(f'<circle cx="{px(math.log10(x)):.2f}" '
                       f'cy="{py(math.log10(y)):.2f}" r="3" fill="{color}"/>')
        ly_pos = _TOP + 18.0 + 16.0 * i
        out.append(f'<line x1="{_LEFT + 10:.2f}" y1="{ly_pos - 4:.2f}" '
                   f'x2="{_LEFT + 34:.2f}" y2="{ly_pos - 4:.2f}" '
                   f'stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{_LEFT + 40:.2f}" y="{ly_pos:.2f}" '
                   f'font-family="sans-serif" font-size="12">{label}</text>')

    out.append("</svg>")
    return "\n".join(out) + "\n"


def write_svg(path, document: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(document, encoding="utf-8")
