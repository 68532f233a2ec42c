import csv
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import threading

import pytest

import coaxmode
from coaxmode import C_LIGHT, cli, verify
from coaxmode.cli import main

import oracles


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def parse_csv(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


class TestZerosCommand:
    def test_bessel_table_matches_oracle(self, capsys):
        code, out, _ = run_cli(capsys, "zeros", "--kind", "bessel",
                               "--m", "0", "--count", "3", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "m,n,value,residual"
        rows = parse_csv(out)
        assert len(rows) == 3
        values = [float(r["value"]) for r in rows]
        assert values == sorted(values)
        for got, ref in zip(values, oracles.bessel_zero_oracle(0)):
            assert got == pytest.approx(ref, abs=1e-10)

    def test_negative_order_same_as_positive(self, capsys):
        code_a, out_a, _ = run_cli(capsys, "zeros", "--kind", "bessel",
                                   "--m", "-1", "--count", "1")
        code_b, out_b, _ = run_cli(capsys, "zeros", "--kind", "bessel",
                                   "--m", "1", "--count", "1")
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_swapped_radii_exit_2_names_requirement(self, capsys):
        code, _, err = run_cli(capsys, "zeros", "--kind", "cross",
                               "--m", "0", "--a", "2", "--b", "1", "--count", "3")
        # the library's wall check, the one the modes command reaches too
        assert code == 2
        assert "need 0 < a < b, got a=2.0, b=1.0" in err

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as info:
            main(["zeros", "--oops", "1"])
        assert info.value.code == 2

    def test_numerical_failure_exit_1(self, capsys):
        # a/b below the conditioning guard is a geometry error -> exit 2
        code, _, err = run_cli(capsys, "zeros", "--kind", "cross", "--m", "0",
                               "--a", "1e-5", "--b", "1", "--count", "1")
        assert code == 2
        assert "a/b" in err


class TestModesCommand:
    def test_empty_below_lowest(self, capsys):
        cutoff = str(0.9 * C_LIGHT * 2.404825557695773)
        code, out, _ = run_cli(capsys, "modes", "--cavity", "cylinder",
                               "--b", "1", "--l", "1", "--omega-max", cutoff)
        assert code == 0
        assert parse_csv(out) == []
        assert out.splitlines()[0] == "m,n,p,gamma,omega_rad_s,degeneracy"

    def test_set_equals_brute_force(self, capsys):
        from coaxmode import CylinderGeometry
        omega_max = C_LIGHT * 6.0
        code, out, _ = run_cli(capsys, "modes", "--cavity", "cylinder",
                               "--b", "1", "--l", "1", "--omega-max", str(omega_max))
        assert code == 0
        got = {(int(r["m"]), int(r["n"]), int(r["p"])) for r in parse_csv(out)}
        assert got == oracles.brute_force_mode_set(CylinderGeometry(1.0, 1.0), omega_max)

    def test_json_document_schema(self, capsys):
        code, out, _ = run_cli(capsys, "modes", "--cavity", "annulus", "--a", "1",
                               "--b", "2", "--l", "1", "--omega-max",
                               str(C_LIGHT * 4.0), "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == "coaxmode/1"
        assert doc["command"] == "modes"
        assert doc["params"]["a"] == 1.0
        assert all(row["omega_rad_s"] <= C_LIGHT * 4.0 for row in doc["rows"])

    def test_hz_flag_converts(self, capsys):
        omega = C_LIGHT * 6.0
        _, out_omega, _ = run_cli(capsys, "modes", "--cavity", "cylinder", "--b", "1",
                                  "--l", "1", "--omega-max", repr(omega))
        _, out_hz, _ = run_cli(capsys, "modes", "--cavity", "cylinder", "--b", "1",
                               "--l", "1", "--freq-max-hz", repr(omega / (2.0 * math.pi)))
        rows_a = parse_csv(out_omega)
        rows_b = parse_csv(out_hz)
        assert [r["m"] for r in rows_a] == [r["m"] for r in rows_b]

    def test_both_cutoffs_rejected(self, capsys):
        code, _, err = run_cli(capsys, "modes", "--cavity", "cylinder", "--b", "1",
                               "--l", "1", "--omega-max", "1e9",
                               "--freq-max-hz", "1e8")
        assert code == 2
        assert "not both" in err

    def test_histogram_rows(self, capsys):
        code, out, _ = run_cli(capsys, "modes", "--cavity", "cylinder", "--b", "1",
                               "--l", "1", "--omega-max", str(C_LIGHT * 6.0),
                               "--histogram", "4")
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 4
        counts = [int(r["cumulative_count"]) for r in rows]
        assert counts == sorted(counts)

    def test_stray_inner_radius_rejected(self, capsys):
        code, _, err = run_cli(capsys, "modes", "--cavity", "cylinder", "--b", "1",
                               "--l", "1", "--a", "0.5", "--omega-max", "1e9")
        assert code == 2
        assert "--a" in err


class TestFieldCommand:
    ARGS = ("field", "--cavity", "cylinder", "--b", "1", "--l", "1",
            "--mode", "1,1,1", "--sign", "+")

    def test_grid_row_count(self, capsys):
        code, out, _ = run_cli(capsys, *self.ARGS, "--rho", "0:1:11",
                               "--phi", "0:6:8", "--z", "0:1:5")
        assert code == 0
        assert out.splitlines()[0] == ("rho,phi,z,re_ez,im_ez,re_erho,im_erho,"
                                       "re_ephi,im_ephi,re_brho,im_brho,"
                                       "re_bphi,im_bphi")
        assert len(parse_csv(out)) == 11 * 8 * 5

    def test_wall_grid_has_tiny_ez(self, capsys):
        code, out, _ = run_cli(capsys, *self.ARGS, "--rho", "1:1:1",
                               "--phi", "0:6:4", "--z", "0:1:3")
        assert code == 0
        for row in parse_csv(out):
            assert math.hypot(float(row["re_ez"]), float(row["im_ez"])) <= 1e-10

    def test_p0_grid_has_no_transverse_e(self, capsys):
        code, out, _ = run_cli(capsys, "field", "--cavity", "cylinder", "--b", "1",
                               "--l", "1", "--mode", "1,1,0", "--sign", "-",
                               "--rho", "0.2:0.8:3", "--phi", "0:5:3", "--z", "0:1:3")
        assert code == 0
        for row in parse_csv(out):
            assert float(row["re_erho"]) == 0.0 and float(row["im_erho"]) == 0.0
            assert float(row["re_ephi"]) == 0.0 and float(row["im_ephi"]) == 0.0

    def test_out_of_cavity_grid_exit_2(self, capsys):
        code, _, err = run_cli(capsys, *self.ARGS, "--rho", "0:1.5:4",
                               "--phi", "0:6:4", "--z", "0:1:3")
        assert code == 2
        assert "grid leaves the cavity" in err

    def test_amplitude_flag(self, capsys):
        code, out, _ = run_cli(capsys, *self.ARGS, "--amplitude", "0,2",
                               "--rho", "0.5:0.5:1", "--phi", "0:0:1", "--z", "0.25:0.25:1")
        assert code == 0
        row = parse_csv(out)[0]
        code2, out2, _ = run_cli(capsys, *self.ARGS, "--rho", "0.5:0.5:1",
                                 "--phi", "0:0:1", "--z", "0.25:0.25:1")
        unit = parse_csv(out2)[0]
        # amplitude 2i rotates and scales every component
        assert float(row["re_ez"]) == pytest.approx(-2.0 * float(unit["im_ez"]), rel=1e-12)
        assert float(row["im_ez"]) == pytest.approx(2.0 * float(unit["re_ez"]), rel=1e-12)

    def test_negative_amplitude_attached_form(self, capsys):
        code, out, _ = run_cli(capsys, *self.ARGS, "--amplitude=-1,2", "--rho", "0.5:0.5:1",
                               "--phi", "0:0:1", "--z", "0.25:0.25:1", "--format", "json")
        assert code == 0
        assert json.loads(out)["params"]["amplitude"] == [-1.0, 2.0]

    def test_grid_ends_on_hi(self, capsys):
        # 0.05 * 6 / 6 rounds to 0.05000000000000001, past the end plate
        code, out, _ = run_cli(capsys, "field", "--cavity", "cylinder", "--b", "1",
                               "--l", "0.05", "--mode", "1,1,1", "--sign", "+",
                               "--rho", "0:1:2", "--phi", "0:0:1", "--z", "0:0.05:7")
        assert code == 0
        assert [float(r["z"]) for r in parse_csv(out)][-1] == 0.05

    @pytest.mark.parametrize("fmt, first", [("csv", "\n-0.0,0.0,0.25,"),
                                            ("json", '"rho": -0.0,')])
    def test_grid_starts_on_lo(self, fmt, first, capsys):
        # lo + (hi - lo) * 0 / (n - 1) is 0.0, which drops the sign of a -0.0 LO
        code, out, _ = run_cli(capsys, *self.ARGS, "--rho=-0.0:0.5:2", "--phi", "0:0:1",
                               "--z", "0.25:0.25:1", "--format", fmt)
        assert code == 0
        assert out.count(first) == 1 and out.index(first) < out.index("0.5")

    @pytest.mark.parametrize("flag,spec", [
        ("--rho", "nan:1:3"), ("--z", "nan:1:2"), ("--phi", "0:inf:3"),
        ("--phi", "nan:1:2"), ("--phi", "-1e308:1e308:3"), ("--phi", "0:1e308:5"),
        ("--rho", "0:nan:1"),
    ])
    def test_non_finite_grid_bound_exit_2(self, flag, spec, tmp_path, capsys):
        grid = {"--rho": "0:1:3", "--phi": "0:6:2", "--z": "0:1:2"}
        grid[flag] = spec
        path = tmp_path / "grid.csv"
        for out in ([], ["--out", str(path)]):
            code, stdout, err = run_cli(capsys, *self.ARGS, *(f"{f}={v}" for f, v in grid.items()),
                                        *out)
            assert code == 2
            assert stdout == ""
            assert flag in err and "finite" in err
        assert not path.exists()

    @pytest.mark.parametrize("extra", [
        ("--amplitude=nan,0",),
        # finite, but -(kz / gamma^2) A overflows
        ("--amplitude=1e308,0", "--l", "0.01", "--mode", "1,1,3"),
    ], ids=["nan", "overflow"])
    def test_non_finite_amplitude_exit_2(self, extra, tmp_path, capsys):
        path = tmp_path / "grid.csv"
        for out in ([], ["--out", str(path)]):
            code, stdout, err = run_cli(capsys, *self.ARGS, "--rho", "0:1:3", "--phi", "0:1:2",
                                        "--z", "0:0.01:2", *extra, *out)
            assert code == 2
            assert stdout == ""
            assert "amplitude" in err
        assert not path.exists()

    def test_finite_amplitude_overflowing_a_row_exit_2(self, tmp_path, capsys):
        # A and every per-mode factor are finite, but the slope of this small
        # cavity's profile carries E_rho and B_phi past the largest double
        path = tmp_path / "grid.csv"
        for out in ([], ["--out", str(path)]):
            code, stdout, err = run_cli(
                capsys, "field", "--cavity", "cylinder", "--b", "1e-4", "--l", "6.4e-9",
                "--mode", "1,1,3", "--sign", "+", "--rho", "0:0.0001:3", "--phi", "0:1:2",
                "--z", "0:6.4e-9:7", "--amplitude=1e308", *out)
            assert code == 2
            assert stdout == ""
            assert "amplitude" in err and "overflows" in err
        assert not path.exists()

    def test_failing_mode_creates_no_out_file(self, tmp_path, capsys):
        path = tmp_path / "grid.csv"
        code, out, err = run_cli(capsys, "field", "--cavity", "cylinder", "--b", "1",
                                 "--l", "1", "--mode", "51,1,0", "--sign", "+",
                                 "--rho", "0:1:3", "--phi", "0:0:1", "--z", "0:1:3",
                                 "--out", str(path))
        assert code == 2
        assert "51" in err
        assert out == ""
        assert not path.exists()


class TestDeterminismAndFormats:
    def test_reruns_byte_identical(self, tmp_path, capsys):
        paths = [tmp_path / "one.csv", tmp_path / "two.csv"]
        for p in paths:
            code, _, _ = run_cli(capsys, "zeros", "--kind", "cross", "--m", "1",
                                 "--a", "1", "--b", "2", "--count", "4",
                                 "--out", str(p))
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_csv_and_json_carry_identical_numbers(self, capsys):
        args = ("zeros", "--kind", "bessel", "--m", "2", "--count", "5")
        _, csv_out, _ = run_cli(capsys, *args, "--format", "csv")
        _, json_out, _ = run_cli(capsys, *args, "--format", "json")
        csv_rows = parse_csv(csv_out)
        json_rows = json.loads(json_out)["rows"]
        for c, j in zip(csv_rows, json_rows):
            assert float(c["value"]) == j["value"]
            assert float(c["residual"]) == j["residual"]

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "job.cfg"
        cfg.write_text("kind = bessel\nm = 3\ncount = 2\nformat = json\n",
                       encoding="utf-8")
        code, out, _ = run_cli(capsys, "zeros", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["params"]["m"] == 3
        code, out, _ = run_cli(capsys, "zeros", "--config", str(cfg), "--m", "1")
        assert code == 0
        assert json.loads(out)["params"]["m"] == 1

    def test_unknown_config_key_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("radius = 1\n", encoding="utf-8")
        with pytest.raises(SystemExit) as exit_info:
            main(["zeros", "--config", str(cfg)])
        out, err = capsys.readouterr()
        assert exit_info.value.code == 2
        assert out == ""
        assert "radius" in err

    def test_bad_config_format_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("kind = bessel\nm = 0\ncount = 1\nformat = xml\n", encoding="utf-8")
        with pytest.raises(SystemExit) as exit_info:
            main(["zeros", "--config", str(cfg)])
        out, err = capsys.readouterr()
        assert exit_info.value.code == 2
        assert "--format" in err and "xml" in err
        assert out == ""

    def test_config_key_of_another_command_exit_2(self, tmp_path, capsys):
        # omega_max is a flag of modes, not of zeros
        cfg = tmp_path / "job.cfg"
        cfg.write_text("kind = bessel\nm = 0\ncount = 2\nomega_max = 3e9\n",
                       encoding="utf-8")
        path = tmp_path / "zeros.csv"
        with pytest.raises(SystemExit) as exit_info:
            main(["zeros", "--config", str(cfg), "--out", str(path)])
        out, err = capsys.readouterr()
        assert exit_info.value.code == 2
        assert out == ""
        assert "omega-max" in err
        assert not path.exists()

    @pytest.mark.parametrize("key", ["config", "conf"])
    def test_config_naming_another_config_exit_2(self, key, tmp_path, capsys):
        cfg = tmp_path / "job.cfg"
        cfg.write_text(f"kind = bessel\nm = 0\ncount = 2\n{key} = other.cfg\n",
                       encoding="utf-8")
        code, out, err = run_cli(capsys, "zeros", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert f"{cfg}:4:" in err

    @pytest.mark.parametrize("command, lines, flags", [
        ("zeros",
         ["kind = cross", "m = 1", "a = 1", "b = 2", "count = 3", "format = json"],
         ["--kind", "cross", "--m", "1", "--a", "1", "--b", "2", "--count", "3",
          "--format", "json"]),
        ("modes",
         ["cavity = annulus", "a = 1.0", "b = 2.0", "l = 1.0", "omega_max = 3e9",
          "histogram = 8"],
         ["--cavity", "annulus", "--a", "1.0", "--b", "2.0", "--l", "1.0",
          "--omega-max", "3e9", "--histogram", "8"]),
        ("field",
         ["cavity = cylinder", "b = 1", "l = 1", "mode = 1,1,1", "sign = -",
          "amplitude = -1,2", "rho = -0.0:1:3", "phi = 0:6:2", "z = 0:1:2"],
         ["--cavity", "cylinder", "--b", "1", "--l", "1", "--mode", "1,1,1", "--sign", "-",
          "--amplitude=-1,2", "--rho=-0.0:1:3", "--phi", "0:6:2", "--z", "0:1:2"]),
        ("verify", ["module = roots"], ["--module", "roots"]),
    ], ids=["zeros", "modes", "field", "verify"])
    def test_config_file_equals_flags(self, command, lines, flags, tmp_path, capsys):
        cfg = tmp_path / "job.cfg"
        cfg.write_text("# one flag a line\n" + "\n".join(lines) + "\n", encoding="utf-8")
        from_file = run_cli(capsys, command, "--config", str(cfg))
        assert from_file[0] == 0
        assert from_file == run_cli(capsys, command, *flags)

    @pytest.mark.parametrize("argv", [
        ("zeros", "--kind", "cross", "--m", "1", "--a", "1", "--b", "2", "--count", "3"),
        ("modes", "--cavity", "annulus", "--a", "1", "--b", "2", "--l", "1",
         "--omega-max", "1.2e9"),
        ("modes", "--cavity", "cylinder", "--b", "1", "--l", "1", "--omega-max", "3e9",
         "--histogram", "4"),
        ("modes", "--cavity", "cylinder", "--b", "1", "--l", "1", "--omega-max", "1e8"),
        ("field", "--cavity", "annulus", "--a", "1", "--b", "2", "--l", "1", "--mode", "2,1,1",
         "--sign", "-", "--rho", "1:2:3", "--phi", "0:6:2", "--z", "0:1:2"),
        ("verify", "specfun"),
    ], ids=["zeros", "modes", "histogram", "empty-modes", "field", "verify"])
    def test_streamed_json_matches_one_shot_dump(self, argv, capsys):
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        assert json.dumps(json.loads(out), indent=2) + "\n" == out

    COLUMNS = ("module", "check", "passed", "detail")
    EDGE = [(-0.0, 5e-324, 1e300, -1e-300), (0, -7, 2**70, 0.1), (1.5, 1e16, 1e-7, 123456789.0)]
    NON_FINITE = [(math.nan, math.inf, -math.inf, 1.0)]
    TEXT = [("fields", "wall, outer", "true", 'max |E_t| = 1e-16, "ok"'),
            ("roots", "index", "false", "n=3\nnext line")]
    ROW_SETS = {
        "numeric": EDGE * 100,
        "non-finite": EDGE * 100 + NON_FINITE,  # only the second batch holds nan/inf
        "empty": [],
        "text": TEXT * 3,
        "mixed": EDGE + TEXT + NON_FINITE,
        "bool": [(True, False, 1, 2.0)],
    }

    @pytest.mark.parametrize("name", ROW_SETS)
    def test_emit_csv_matches_csv_writer(self, name, tmp_path):
        rows = self.ROW_SETS[name]
        path = tmp_path / "rows.csv"
        cli._emit("x", {}, self.COLUMNS, iter(rows), "csv", str(path))
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(self.COLUMNS)
        writer.writerows(rows)
        assert path.read_bytes().decode("utf-8") == expected.getvalue()

    @pytest.mark.parametrize("name", ROW_SETS)
    def test_emit_json_matches_one_shot_dump(self, name, tmp_path):
        rows = self.ROW_SETS[name]
        path = tmp_path / "rows.json"
        cli._emit("x", {"k": [1.0, None]}, self.COLUMNS, iter(rows), "json", str(path))
        doc = {"schema": cli.SCHEMA, "command": "x", "params": {"k": [1.0, None]},
               "rows": [dict(zip(self.COLUMNS, row)) for row in rows]}
        assert path.read_bytes().decode("utf-8") == json.dumps(doc, indent=2) + "\n"

    # field prints each rho, phi and z from text made once per axis value; on
    # every grid shape and sign of zero the bytes must stay those csv.writer and
    # json.dumps print for the public field_grid rows
    FIELD_COLUMNS = ("rho", "phi", "z", "re_ez", "im_ez", "re_erho", "im_erho",
                     "re_ephi", "im_ephi", "re_brho", "im_brho", "re_bphi", "im_bphi")
    FIELD_GRIDS = {  # cavity, mode, sign, amplitude, rho, phi, z
        "cylinder": ("cylinder", "1,2,1", "+", "0.7,-1.3", "0:1:5", "0:6.28:7", "0:1:9"),
        "annulus-p0": ("annulus", "2,1,0", "-", "1", "1:2:4", "-3:3:9", "0:0.5:9"),
        # an axis ends on HI itself, so "0:-0.0:2" samples 0.0, then -0.0
        "signed-zeros": ("cylinder", "0,1,2", "-", "1,1", "0:-0.0:2", "-1:-0.0:9", "0:1:17"),
        "1x1xN": ("annulus", "1,1,1", "+", "-2", "1.5:1.5:1", "-0.0:-0.0:1", "0:1:300"),
        "Nx1x1": ("cylinder", "3,2,1", "-", "0.5,0.25", "0:1:300", "1:1:1", "0.5:0.5:1"),
        "1xNx1": ("cylinder", "3,2,1", "+", "1", "0.5:0.5:1", "-7:-1:300", "-0.0:-0.0:1"),
        "rho-block-over-256": ("annulus", "2,2,1", "+", "-0.5,2", "1:2:2", "-1:5:20",
                               "0:0.5:15"),
        # from 2 * cli._SPLIT_ROWS rows up, a grid renders on several CPUs (one
        # more per _SPLIT_ROWS rows): sub-grids split rho, phi or z, whichever
        # is the outermost axis whose per-value block fits in a CPU's share
        "rho-split-even": ("annulus", "2,1,1", "-", "0.5,-1", "1:2:4", "0:6.2:20", "0:1:30"),
        "rho-split-odd": ("cylinder", "1,2,0", "+", "1", "0:1:5", "-3:3:20", "0:1:25"),
        "phi-split-1xNxM": ("cylinder", "4,1,2", "-", "2,0.5", "0.25:0.25:1", "0:6.28:50",
                            "0:1:60"),
        "z-split-1x1xN": ("annulus", "0,2,3", "+", "-1,1", "1.25:1.25:1", "2:2:1",
                          "0:1:2500"),
        # more rows than cli._SUBGRID_ROWS per CPU: a 2-CPU host renders it in
        # three rounds of sub-grids that fix rho and take a range of phi
        "over-the-cap": ("annulus", "3,1,1", "+", "1,-2", "1:2:3", "0:6:110", "0:1:100"),
    }

    def _field_oracle(self, cavity, mode, sign, amp, grid, fmt) -> str:
        geometry = (coaxmode.CylinderGeometry(1.0, 1.0) if cavity == "cylinder"
                    else coaxmode.AnnulusGeometry(1.0, 2.0, 1.0))
        m, n, p = map(int, mode.split(","))
        re, _, im = amp.partition(",")
        amplitude = complex(float(re), float(im or 0.0))
        rows = list(coaxmode.field_grid(geometry, coaxmode.ModeIndex(m, n, p),
                                        1 if sign == "+" else -1, amplitude, *grid))
        if fmt == "csv":
            expected = io.StringIO()
            writer = csv.writer(expected, lineterminator="\n")
            writer.writerow(self.FIELD_COLUMNS)
            writer.writerows(rows)
            return expected.getvalue()
        params = {"cavity": cavity, "b": geometry.b, "l": geometry.l, "mode": [m, n, p],
                  "sign": sign, "amplitude": [amplitude.real, amplitude.imag]}
        if cavity == "annulus":
            params["a"] = geometry.a
        doc = {"schema": cli.SCHEMA, "command": "field", "params": params,
               "rows": [dict(zip(self.FIELD_COLUMNS, row)) for row in rows]}
        return json.dumps(doc, indent=2) + "\n"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("name", FIELD_GRIDS)
    def test_field_matches_csv_writer_and_one_shot_dump(self, name, fmt, tmp_path, capsys,
                                                        monkeypatch):
        cavity, mode, sign, amp, *specs = self.FIELD_GRIDS[name]
        grid = [cli._parse_grid(spec, flag) for spec, flag in zip(specs, ("rho", "phi", "z"))]
        rows = len(grid[0]) * len(grid[1]) * len(grid[2])
        assert rows > 256  # more than one write
        expected = self._field_oracle(cavity, mode, sign, amp, grid, fmt)
        argv = self._field_argv(name) + ["--format", fmt]
        # the job forks exactly where the grid may render on several CPUs
        forks = []
        fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out == expected
        path = tmp_path / f"grid.{fmt}"
        assert main([*argv, "--out", str(path)]) == 0
        assert path.read_bytes().decode("utf-8") == expected
        assert bool(forks) == (rows >= 2 * cli._SPLIT_ROWS and _usable_cpus() >= 2
                               and threading.active_count() == 1)

    def _field_expected(self, name, fmt) -> str:
        cavity, mode, sign, amp, *specs = self.FIELD_GRIDS[name]
        grid = [cli._parse_grid(spec, flag) for spec, flag in zip(specs, ("rho", "phi", "z"))]
        return self._field_oracle(cavity, mode, sign, amp, grid, fmt)

    def _field_argv(self, name) -> list[str]:
        cavity, mode, sign, amp, *specs = self.FIELD_GRIDS[name]
        argv = ["field", "--cavity", cavity, "--b", "1" if cavity == "cylinder" else "2",
                "--l", "1", "--mode", mode, "--sign", sign, f"--amplitude={amp}",
                f"--rho={specs[0]}", f"--phi={specs[1]}", f"--z={specs[2]}"]
        return argv + ["--a", "1"] if cavity == "annulus" else argv

    def _field_child(self, argv, setup, **popen) -> subprocess.Popen:
        """A child process that runs ``setup`` (Python lines), then ``main(argv)``."""
        package_root = os.path.dirname(os.path.dirname(coaxmode.__file__))
        env = dict(os.environ, **popen.pop("env", {}))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root,
                                                          env.get("PYTHONPATH")]))
        code = (setup + "from coaxmode.cli import main\n"
                f"raise SystemExit(main({argv!r}))\n")
        return subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, env=env, **popen)

    NO_FORK = ("import os\n"
               "def fork():\n"
               "    raise AssertionError('a serial job forked')\n"
               "os.fork = fork\n")

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity")
    @pytest.mark.parametrize("setup", [
        "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n",
        "import threading\n"
        "threading.Thread(target=threading.Event().wait, args=(60,), daemon=True).start()\n",
    ], ids=["one-cpu", "second-thread"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_field_stays_serial_on_one_cpu_or_beside_a_thread(self, setup, fmt):
        proc = self._field_child(self._field_argv("rho-split-odd") + ["--format", fmt],
                                 self.NO_FORK + setup)
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err.decode()
        assert out.decode("utf-8") == self._field_expected("rho-split-odd", fmt)

    @pytest.mark.skipif(not hasattr(os, "killpg"), reason="no process groups")
    def test_closed_pipe_leaves_no_worker(self):
        # 98k rows: the job is still rendering when its reader goes away
        argv = ["field", "--cavity", "cylinder", "--b", "1", "--l", "1", "--mode", "1,1,1",
                "--sign", "+", "--rho", "0:1:32", "--phi", "0:6:96", "--z", "0:1:32",
                "--format", "json"]
        with self._field_child(argv, "", start_new_session=True) as proc:
            try:
                assert proc.stdout.read(1 << 16)
                proc.stdout.close()
                assert proc.wait(timeout=120) == 1
                err = proc.stderr.read().decode()
            finally:
                proc.kill()
        assert err.startswith("coaxmode field: ") and err.count("\n") == 1, err
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)

    @pytest.mark.skipif(_usable_cpus() < 2 or not hasattr(os, "killpg"),
                        reason="needs two CPUs and process groups")
    def test_failing_worker_is_one_line_exit_1(self):
        # a worker whose temp file hits the file-size limit fails; stdout, a
        # pipe, has no such limit, so only the worker's failure can end the job
        proc = self._field_child(self._field_argv("rho-split-even") + ["--format", "json"],
                                 "import resource\n"
                                 "resource.setrlimit(resource.RLIMIT_FSIZE, (4096, 4096))\n",
                                 start_new_session=True)
        try:
            out, err = proc.communicate(timeout=120)
        finally:
            proc.kill()
            proc.wait()
        assert proc.returncode == 1
        assert err.decode() == ("coaxmode field: a worker rendering the grid failed "
                                "(exit code 1)\n")
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)

    @pytest.mark.skipif(not hasattr(os, "killpg"), reason="no process groups")
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_missing_tmpdir_keeps_the_job_serial(self, fmt, tmp_path):
        # without a temp file the workers have nowhere to write: the job
        # prints the serial bytes and forks nothing
        proc = self._field_child(self._field_argv("rho-split-even") + ["--format", fmt],
                                 self.NO_FORK, start_new_session=True,
                                 env={"TMPDIR": str(tmp_path / "missing")})
        try:
            out, err = proc.communicate(timeout=120)
        finally:
            proc.kill()
            proc.wait()
        assert proc.returncode == 0, err.decode()
        assert out.decode("utf-8") == self._field_expected("rho-split-even", fmt)
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)


class TestVerifyCommand:
    def test_full_run_passes(self, capsys):
        code, out, err = run_cli(capsys, "verify")
        assert code == 0
        doc = json.loads(out)  # verify defaults to the JSON summary
        assert doc["params"]["all_passed"] is True
        assert {r["module"] for r in doc["rows"]} == {"specfun", "roots",
                                                      "cavity", "fields"}
        assert "[FAIL]" not in err

    def test_json_bytes_match_the_committed_document(self, capsys):
        # the document each supported interpreter prints; CI compares a cold run too
        data = pathlib.Path(__file__).parent / "data" / "verify.json"
        code, out, _ = run_cli(capsys, "verify", "--format", "json")
        assert code == 0
        assert out == data.read_text(encoding="utf-8")

    def test_module_filter(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--module", "roots",
                                 "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["params"]["all_passed"] is True
        assert {row["module"] for row in doc["rows"]} == {"roots"}
        assert "[PASS]" in err

    def test_positional_module(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "roots", "--format", "json")
        assert code == 0
        assert {r["module"] for r in json.loads(out)["rows"]} == {"roots"}

    def test_injected_zero_tolerance_fails(self, capsys, monkeypatch):
        failing = [verify.CheckResult("roots", "planted", False, "planted failure")]
        monkeypatch.setitem(verify._SUITES, "roots", lambda: failing)
        code, out, err = run_cli(capsys, "verify", "roots", "--format", "json")
        assert code == 1
        assert "[FAIL]" in err
        assert json.loads(out)["params"]["all_passed"] is False

    def test_unknown_module_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "verify", "nope")
        assert code == 2
        assert "unknown module" in err

    def test_run_checks_refuses_an_unknown_module(self):
        with pytest.raises(coaxmode.errors.DomainError, match="unknown module 'nope'"):
            verify.run_checks("nope")

    @pytest.mark.parametrize("command, default", [("zeros", "csv"), ("verify", "json")])
    def test_help_states_the_format_default(self, command, default, capsys):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert " ".join(capsys.readouterr().out.split()).count(
            f"output format (default {default})") == 1

    def test_csv_report_quotes_detail_commas(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--module", "specfun",
                               "--format", "csv")
        assert code == 0
        rows = parse_csv(out)
        assert rows and all(len(r) == 4 and None not in r.values() for r in rows)
        assert {r["passed"] for r in rows} == {"true"}


def test_module_entry_point_runs():
    # the child imports the coaxmode this test imported, installed or not
    package_root = os.path.dirname(os.path.dirname(coaxmode.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "coaxmode", "zeros", "--kind", "bessel",
         "--m", "0", "--count", "1"],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "m,n,value,residual"


def test_out_of_memory_is_one_line_not_a_traceback():
    # 771,352 modes do not fit in 100 MB of address space; the command must
    # say so on one line and exit 1
    pytest.importorskip("resource")
    package_root = os.path.dirname(os.path.dirname(coaxmode.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    code = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (100_000 << 10, 100_000 << 10))\n"
        "from coaxmode.cli import main\n"
        "raise SystemExit(main(['modes', '--cavity', 'cylinder', '--b', '1', '--l', '100',\n"
        "                       '--omega-max', '1.6e10']))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=env)
    assert proc.returncode == 1
    assert proc.stderr.startswith("coaxmode modes: out of memory")
    assert "Traceback" not in proc.stderr


def test_long_field_axis_streams_in_flat_memory():
    # a 1x1x262,144 grid is one rho block of about 110 MB of JSON; written 256
    # rows at a time it fits in 250 MB of address space, one write would not
    pytest.importorskip("resource")
    package_root = os.path.dirname(os.path.dirname(coaxmode.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    code = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (250_000 << 10, 250_000 << 10))\n"
        "from coaxmode.cli import main\n"
        "raise SystemExit(main(['field', '--cavity', 'cylinder', '--b', '1', '--l', '1',\n"
        "                       '--mode', '1,1,1', '--sign', '+', '--rho', '0.5:0.5:1',\n"
        "                       '--phi', '1:1:1', '--z', '0:1:262144', '--format', 'json']))\n")
    # the with block closes both pipes and reaps the child, also on a failure
    with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, env=env) as proc:
        objects, last = 0, b""
        while chunk := proc.stdout.read(1 << 20):
            objects += chunk.count(b"{")
            last = (last + chunk)[-16:]
        stderr = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 0, stderr
    assert objects == 2 + 262_144  # the document, its params and one object per row
    assert last.endswith(b"\n    }\n  ]\n}\n")
