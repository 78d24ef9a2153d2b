"""Transmitter look-up-table export: label bits to I/Q plus dummy masks.

The on-disk format is CSV with a commented preamble:

    # shapegain lut v1
    # m=2
    # dual_pol_dummy_mask=0101
    label_bits,i,q,dummy_mask
    # table=XY
    00,0.7071067811865476,0.7071067811865476,01
    ...

One row per label in index order. The per-row dummy_mask covers the m
bits of that polarization's table; when the X and Y halves of the
dual-pol mask differ, two tables (`# table=X`, `# table=Y`) are emitted,
otherwise a single shared `# table=XY`. Coordinates are written with
full repr precision. The reader is the writer's inverse: parse_lut takes m,
the mask and the first table's points, and accepts the text only if
render_lut of them reproduces it line for line (blank lines and
surrounding whitespace aside), so parse/export round-trips are byte-stable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constellation import Constellation
from .errors import ParameterError
from .rate_adapt import RateAdaptPlan


@dataclass(frozen=True)
class LutDocument:
    constellation: Constellation
    dual_pol_mask: str

    @property
    def m(self) -> int:
        return self.constellation.m


def render_lut(c: Constellation, dual_pol_mask: str) -> str:
    """Serialize a constellation plus dual-pol dummy mask to LUT text."""
    if len(dual_pol_mask) != 2 * c.m or not set(dual_pol_mask) <= {"0", "1"}:
        raise ParameterError(
            f"dual-pol mask must be {2 * c.m} bits of 0/1, got {dual_pol_mask!r}")
    mask_x, mask_y = dual_pol_mask[:c.m], dual_pol_mask[c.m:]
    lines = [
        "# shapegain lut v1",
        f"# m={c.m}",
        f"# dual_pol_dummy_mask={dual_pol_mask}",
        "label_bits,i,q,dummy_mask",
    ]
    tables = [("XY", mask_x)] if mask_x == mask_y else [("X", mask_x), ("Y", mask_y)]
    for name, pol_mask in tables:
        lines.append(f"# table={name}")
        lines.extend(f"{label:0{c.m}b},{float(p.real)!r},{float(p.imag)!r},{pol_mask}"
                     for label, p in enumerate(c.points))
    return "\n".join(lines) + "\n"


def export_lut(c: Constellation, plan: RateAdaptPlan, path) -> None:
    """Write the LUT for a constellation under a rate-adaptation plan."""
    if plan.m != c.m:
        raise ParameterError(f"plan is for m = {plan.m}, constellation has m = {c.m}")
    with open(path, "w") as fh:
        fh.write(render_lut(c, plan.dummy_mask()))


def parse_lut_text(text: str) -> LutDocument:
    """The document of a LUT text; ParameterError unless render_lut wrote it."""
    numbered = [(n, kept) for n, row in enumerate(text.splitlines(), 1) if (kept := row.strip())]
    lines = [line for _, line in numbered]
    try:
        m = int(lines[1].partition("=")[2])
        # the table needs 2^m rows, so m is bounded by the line count
        if not 1 <= m < len(lines).bit_length():
            raise ValueError(f"m = {m} does not fit a LUT of {len(lines)} lines")
        rows = [line.split(",") for line in lines[5:5 + (1 << m)]]
        points = np.array([complex(float(row[1]), float(row[2])) for row in rows])
        c = Constellation(m=m, points=points, metadata={"generator": "lut_import"})
        dual_mask = lines[2].partition("=")[2]
        expected = render_lut(c, dual_mask).splitlines()
    except (IndexError, ValueError) as exc:
        raise ParameterError(f"not a shapegain LUT: {exc}") from exc
    if lines != expected:
        i = next(i for i, (got, want) in enumerate(zip(lines + [None], expected + [None]))
                 if got != want)
        want = repr(expected[i]) if i < len(expected) else "the end of the table"
        got = f"line {numbered[i][0]} reads {lines[i]!r}" if i < len(lines) else "the text ends"
        raise ParameterError(f"not a shapegain LUT: expected {want}, but {got}")
    return LutDocument(constellation=c, dual_pol_mask=dual_mask)


def parse_lut(path) -> LutDocument:
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParameterError(f"{path}: not UTF-8 text: {exc}") from exc
    return parse_lut_text(text)
