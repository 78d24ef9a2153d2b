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
full repr precision so parse/export round-trips are byte-stable.
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


def _mask_ok(mask: str, length: int) -> bool:
    return len(mask) == length and set(mask) <= {"0", "1"}


def _render_rows(c: Constellation, pol_mask: str) -> list:
    rows = []
    for label in range(c.size):
        p = c.points[label]
        rows.append(f"{label:0{c.m}b},{float(p.real)!r},{float(p.imag)!r},{pol_mask}")
    return rows


def render_lut(c: Constellation, dual_pol_mask: str) -> str:
    """Serialize a constellation plus dual-pol dummy mask to LUT text."""
    if not _mask_ok(dual_pol_mask, 2 * c.m):
        raise ParameterError(
            f"dual-pol mask must be {2 * c.m} bits of 0/1, got {dual_pol_mask!r}")
    mask_x, mask_y = dual_pol_mask[:c.m], dual_pol_mask[c.m:]
    lines = [
        "# shapegain lut v1",
        f"# m={c.m}",
        f"# dual_pol_dummy_mask={dual_pol_mask}",
        "label_bits,i,q,dummy_mask",
    ]
    if mask_x == mask_y:
        lines.append("# table=XY")
        lines.extend(_render_rows(c, mask_x))
    else:
        lines.append("# table=X")
        lines.extend(_render_rows(c, mask_x))
        lines.append("# table=Y")
        lines.extend(_render_rows(c, mask_y))
    return "\n".join(lines) + "\n"


def export_lut(c: Constellation, plan: RateAdaptPlan, path) -> None:
    """Write the LUT for a constellation under a rate-adaptation plan."""
    if plan.m != c.m:
        raise ParameterError(f"plan is for m = {plan.m}, constellation has m = {c.m}")
    with open(path, "w") as fh:
        fh.write(render_lut(c, plan.dummy_mask()))


def _number(kind, text: str, where: str):
    try:
        return kind(text)
    except ValueError:
        raise ParameterError(f"{where}: {text!r} is not a valid {kind.__name__}") from None


def parse_lut_text(text: str) -> LutDocument:
    m = None
    dual_mask = None
    tables: dict = {}
    current = None
    header_seen = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("m="):
                m = _number(int, body[2:], f"line {lineno}: m")
            elif body.startswith("dual_pol_dummy_mask="):
                dual_mask = body.split("=", 1)[1]
            elif body.startswith("table="):
                current = body.split("=", 1)[1]
                tables[current] = []
            continue
        if not header_seen:
            if line != "label_bits,i,q,dummy_mask":
                raise ParameterError(f"line {lineno}: unexpected LUT header {line!r}")
            header_seen = True
            continue
        if current is None:
            raise ParameterError(f"line {lineno}: LUT row outside any table section")
        fields = line.split(",")
        if len(fields) != 4:
            raise ParameterError(f"line {lineno}: expected 4 fields, got {len(fields)}")
        tables[current].append(fields)

    if m is None or dual_mask is None or not header_seen:
        raise ParameterError("LUT preamble incomplete (need m, mask, and header)")
    if not _mask_ok(dual_mask, 2 * m):
        raise ParameterError(f"bad dual-pol mask {dual_mask!r} for m = {m}")
    if set(tables) not in ({"XY"}, {"X", "Y"}):
        raise ParameterError(f"unexpected LUT table sections {sorted(tables)}")

    points = None
    for name, rows in tables.items():
        if len(rows) != 1 << m:
            raise ParameterError(
                f"table {name}: expected {1 << m} rows, got {len(rows)}")
        pts = np.empty(1 << m, dtype=np.complex128)
        for label, (bits, re_s, im_s, row_mask) in enumerate(rows):
            if bits != format(label, f"0{m}b"):
                raise ParameterError(
                    f"table {name}: row {label} has label_bits {bits!r}, "
                    f"rows must appear in label order")
            expected = dual_mask[:m] if name in ("X", "XY") else dual_mask[m:]
            if row_mask != expected:
                raise ParameterError(
                    f"table {name}: row mask {row_mask!r} disagrees with the "
                    f"dual-pol mask")
            where = f"table {name}: row {label}"
            pts[label] = complex(_number(float, re_s, where), _number(float, im_s, where))
        if points is None:
            points = pts
        elif not np.array_equal(points, pts):
            raise ParameterError("X and Y tables carry different constellations")

    c = Constellation(m=m, points=points, metadata={"generator": "lut_import"})
    return LutDocument(constellation=c, dual_pol_mask=dual_mask)


def parse_lut(path) -> LutDocument:
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParameterError(f"{path}: not UTF-8 text: {exc}") from exc
    return parse_lut_text(text)
