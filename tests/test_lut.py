"""Transmitter LUT export/parse round-trips and format validation."""

import numpy as np
import pytest

from shapegain import (
    ParameterError,
    export_lut,
    parse_lut,
    render_lut,
    select_dummy_bits,
    uniform_qam,
)
from shapegain.demapper import make_report
from shapegain.lut import parse_lut_text


def _plan(m, n_d, per_bit=None):
    if per_bit is None:
        per_bit = np.linspace(1.0, 0.2, m)
    rep = make_report(np.asarray(per_bit, float), 10_000, 0.001)
    return select_dummy_bits(rep, n_d, 0.75)


class TestRender:
    def test_qpsk_without_dummies(self):
        c = uniform_qam(2)
        text = render_lut(c, "0000")
        lines = text.strip().split("\n")
        assert lines[0] == "# shapegain lut v1"
        assert lines[1] == "# m=2"
        assert lines[2] == "# dual_pol_dummy_mask=0000"
        assert lines[3] == "label_bits,i,q,dummy_mask"
        assert lines[4] == "# table=XY"
        assert len(lines) == 9  # preamble + header + section + 4 rows
        first = lines[5].split(",")
        assert first[0] == "00"
        assert complex(float(first[1]), float(first[2])) == c.points[0]
        assert first[3] == "00"

    def test_split_tables_when_pol_masks_differ(self):
        c = uniform_qam(2)
        text = render_lut(c, "0100")
        lines = text.strip().split("\n")
        assert "# table=X" in lines and "# table=Y" in lines
        assert "# table=XY" not in lines
        x_at = lines.index("# table=X")
        y_at = lines.index("# table=Y")
        assert y_at - x_at == 5  # 4 rows between section markers
        assert lines[x_at + 1].endswith(",01")
        assert lines[y_at + 1].endswith(",00")

    def test_row_order_is_label_order(self):
        c = uniform_qam(3)
        rows = [l for l in render_lut(c, "0" * 6).strip().split("\n")
                if not l.startswith("#") and not l.startswith("label_bits")]
        assert [r.split(",")[0] for r in rows] == [format(i, "03b") for i in range(8)]

    def test_bad_mask_rejected(self):
        c = uniform_qam(2)
        with pytest.raises(ParameterError):
            render_lut(c, "00")  # wrong length
        with pytest.raises(ParameterError):
            render_lut(c, "00x0")


class TestRoundTrip:
    def test_export_parse_recovers_points_exactly(self, tmp_path):
        c = uniform_qam(4)
        plan = _plan(4, 2)
        path = tmp_path / "table.csv"
        export_lut(c, plan, path)
        doc = parse_lut(path)
        np.testing.assert_array_equal(doc.constellation.points, c.points)
        assert doc.m == 4
        assert doc.dual_pol_mask == plan.dummy_mask()
        assert doc.constellation.metadata["generator"] == "lut_import"

    def test_export_parse_export_is_byte_stable(self, tmp_path):
        c = uniform_qam(3)
        plan = _plan(3, 3)  # odd count makes the pol masks differ
        first = tmp_path / "a.csv"
        export_lut(c, plan, first)
        doc = parse_lut(first)
        second = render_lut(doc.constellation, doc.dual_pol_mask)
        assert second == first.read_text()

    def test_mask_matches_plan_dummy_levels(self, tmp_path):
        plan = _plan(4, 3, per_bit=[0.9, 0.1, 0.8, 0.2])
        path = tmp_path / "t.csv"
        export_lut(uniform_qam(4), plan, path)
        doc = parse_lut(path)
        marked = {i for i, ch in enumerate(doc.dual_pol_mask) if ch == "1"}
        assert marked == set(plan.dummy_positions)

    def test_wrong_m_plan_rejected(self, tmp_path):
        with pytest.raises(ParameterError):
            export_lut(uniform_qam(3), _plan(2, 1), tmp_path / "t.csv")


class TestParseValidation:
    def _valid_text(self):
        return render_lut(uniform_qam(2), "0001")

    def test_missing_preamble_rejected(self):
        text = self._valid_text().replace("# m=2\n", "")
        with pytest.raises(ParameterError):
            parse_lut_text(text)

    def test_wrong_header_rejected(self):
        text = self._valid_text().replace("label_bits,i,q,dummy_mask",
                                          "bits,i,q,mask")
        with pytest.raises(ParameterError):
            parse_lut_text(text)

    def test_out_of_order_rows_rejected(self):
        lines = self._valid_text().strip().split("\n")
        lines[5], lines[6] = lines[6], lines[5]
        with pytest.raises(ParameterError):
            parse_lut_text("\n".join(lines))

    def test_missing_rows_rejected(self):
        lines = self._valid_text().strip().split("\n")
        with pytest.raises(ParameterError):
            parse_lut_text("\n".join(lines[:-1]))

    def test_row_mask_disagreeing_with_preamble_rejected(self):
        text = self._valid_text()
        # flip one row's mask column
        lines = text.strip().split("\n")
        fields = lines[5].split(",")
        fields[3] = "11"
        lines[5] = ",".join(fields)
        with pytest.raises(ParameterError):
            parse_lut_text("\n".join(lines))

    def test_row_outside_table_section_rejected(self):
        lines = self._valid_text().strip().split("\n")
        del lines[4]  # drop "# table=XY"
        with pytest.raises(ParameterError):
            parse_lut_text("\n".join(lines))

    def test_differing_xy_points_rejected(self):
        c = uniform_qam(1)
        text = render_lut(c, "01")  # split tables
        lines = text.strip().split("\n")
        y_at = lines.index("# table=Y")
        fields = lines[y_at + 1].split(",")
        fields[1] = "0.5"
        lines[y_at + 1] = ",".join(fields)
        with pytest.raises(ParameterError):
            parse_lut_text("\n".join(lines))

    @pytest.mark.parametrize("edit", [
        lambda text: text.replace("# m=2", "# m=x"),
        lambda text: text.replace(",0.70", ",abc", 1),
        lambda text: text.replace("# shapegain", "# \xff shapegain").encode("latin-1"),
    ], ids=["non-integer m", "non-numeric coordinate", "not utf-8"])
    def test_undecodable_value_rejected(self, tmp_path, edit):
        body = edit(self._valid_text())
        path = tmp_path / "bad.lut"
        if isinstance(body, bytes):
            path.write_bytes(body)
        else:
            path.write_text(body, encoding="utf-8")
        with pytest.raises(ParameterError):
            parse_lut(path)

    def test_blank_lines_are_tolerated(self):
        text = self._valid_text().replace("# table=XY\n", "# table=XY\n\n")
        doc = parse_lut_text(text)
        assert doc.m == 2
