import json

import pytest

import slopecert.certify
from slopecert.braid import BraidWord
from slopecert.certify import (
    REASON_DIRECT,
    REASON_GENUS,
    batch,
    certify_slope,
    parse_slope,
)
from slopecert.cli import main
from slopecert.homfly import OracleBudgetError, SquareSearchError
from slopecert.poly import LaurentPoly


class TestCertifySlope:
    def test_slope_2_1(self):
        cert = certify_slope(2, 1)
        assert (cert.params.r, cert.params.s, cert.params.t) == (3, 2, 4)
        assert cert.braid == BraidWord.parse("2: 1 1 1")
        assert cert.genus == 1
        assert cert.gamma_cr == LaurentPoly({1: -2, 2: -1})
        assert cert.gamma_cr_is_unit is False
        assert cert.diff_nonzero_reason == REASON_DIRECT

    def test_slope_3_2(self):
        cert = certify_slope(3, 2)
        assert (cert.params.r, cert.params.s, cert.params.t) == (4, 3, 21)
        assert cert.braid.strands == 6
        assert len(cert.braid.letters) == 37
        assert cert.genus == 16
        assert cert.diff_nonzero_reason == REASON_GENUS
        assert cert.gamma_cr is None
        assert cert.to_obj()["gamma_cr_is_unit"] == "not-computed"

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="other constructions"):
            certify_slope(1, 5)
        with pytest.raises(ValueError, match="other constructions"):
            certify_slope(0, 1)
        with pytest.raises(ValueError, match="lowest terms"):
            certify_slope(4, 2)
        with pytest.raises(ValueError):
            certify_slope(3, -2)

    def test_internal_identities_stored(self):
        cert = certify_slope(5, 2)
        assert cert.kb - cert.kg == cert.diff
        if cert.diff_nonzero_reason == REASON_GENUS:
            assert cert.genus >= 1
        else:
            assert cert.gamma_cr_is_unit is False

    def test_verify_oracle_route(self):
        cert = certify_slope(2, 1, verify_oracle=True)
        assert cert.diff_nonzero_reason == REASON_DIRECT

    def test_gamma_budget_gates_direct_route(self):
        cert = certify_slope(2, 1, gamma_budget=0)
        assert cert.gamma_cr is None
        assert cert.diff_nonzero_reason == REASON_GENUS
        assert cert.genus >= 1

    def test_s_start_gives_alternate_certificate(self):
        cert = certify_slope(2, 1, s_start=3, verify_oracle=True)
        assert (cert.params.r, cert.params.s, cert.params.t) == (5, 3, 12)
        assert cert.genus == 4
        assert cert.gamma_cr == LaurentPoly({4: 7, 5: 8, 6: 2})

    def test_direct_route_on_non_simple_cables(self):
        # cables on which some pair of strands crosses more than once; a
        # breadth-first square search once gave up on each of them
        for p, q in ((3, 2), (3, 4), (2, 5), (3, 5)):
            cert = certify_slope(p, q, gamma_budget=80)
            assert cert.diff_nonzero_reason == REASON_DIRECT
            assert cert.gamma_cr_is_unit is False

    def test_larger_slopes_use_genus_route(self):
        for p, q in ((7, 5), (11, 4)):
            cert = certify_slope(p, q)
            assert cert.diff_nonzero_reason == REASON_GENUS
            assert cert.genus >= 1
            assert len(cert.braid.letters) > 100

    def test_determinism(self):
        a = certify_slope(3, 1).to_json()
        b = certify_slope(3, 1).to_json()
        assert a == b
        obj = json.loads(a)
        assert obj["schema_version"] == 1
        assert obj["slope"] == {"p": 3, "q": 1}

    def test_json_fields(self):
        obj = certify_slope(2, 1).to_obj()
        assert obj["braid"] == "2: 1 1 1"
        assert obj["params"] == {"p": 2, "q": 1, "r": 3, "s": 2, "t": 4}
        assert obj["induced_slopes"] == [[2, 1], [4, 1], [20, 1]]
        assert obj["gamma_cr"] == [[1, -2], [2, -1]]
        assert obj["diff_nonzero_reason"] == REASON_DIRECT
        assert obj["genus"] == 1
        # every polynomial row is [h, c, pairs]
        for row in obj["kb"]:
            assert len(row) == 3


class TestParseSlope:
    def test_forms(self):
        assert parse_slope("3/2") == (3, 2)
        assert parse_slope("7") == (7, 1)
        assert parse_slope("-3/2") == (-3, 2)
        assert parse_slope("3/-2") == (-3, 2)

    def test_rejects(self):
        with pytest.raises(ValueError):
            parse_slope("3/0")
        with pytest.raises(ValueError):
            parse_slope("")


class TestBatch:
    def test_three_good_slopes(self):
        report = batch(["2/1", "3/1", "5/1"])
        assert report.all_ok
        assert len(report.entries) == 3
        assert report.summary_lines()[-1] == "3/3 slopes certified"

    def test_empty(self):
        report = batch([])
        assert report.all_ok
        assert report.summary_lines() == ["0/0 slopes certified"]

    def test_rejection_recorded_not_fatal(self):
        report = batch(["1/1", "2/1"])
        assert not report.all_ok
        assert report.entries[0].error is not None
        assert report.entries[1].ok

    def test_tuple_input(self):
        report = batch([(2, 1)])
        assert report.all_ok

    def test_direct_route_batch(self):
        report = batch(["3/2", "5/2"], gamma_budget=40)
        assert report.all_ok
        assert [e.certificate.diff_nonzero_reason for e in report.entries] == [REASON_DIRECT] * 2

    def test_negative_slope_is_certified_as_its_mirror(self):
        report = batch(["-5/2", (-3, 1), "-1/2"])
        first, second, third = report.entries
        assert first.ok and second.ok
        assert (first.mirror_of, second.mirror_of) == ("-5/2", "-3/1")
        assert first.certificate.to_json() == certify_slope(5, 2).to_json()
        assert second.certificate.to_json() == certify_slope(3, 1).to_json()
        assert not third.ok
        assert "outside the working range" in third.error

    def test_slope_too_large_to_build_is_recorded(self):
        report = batch(["99999999999999999999/7", "2/1"])
        assert [e.ok for e in report.entries] == [False, True]
        assert "too long to build" in report.entries[0].error

    def test_engine_errors_recorded_not_fatal(self, monkeypatch):
        real = slopecert.certify.gamma_positive
        errors = iter([SquareSearchError("no square found"), OracleBudgetError("word too long")])

        def failing_twice(w, *args, **kwargs):
            error = next(errors, None)
            if error is not None:
                raise error
            return real(w, *args, **kwargs)

        monkeypatch.setattr(slopecert.certify, "gamma_positive", failing_twice)
        report = batch(["2/1", "3/1", "5/2"])
        assert [e.ok for e in report.entries] == [False, False, True]
        assert report.summary_lines()[:2] == [
            "FAIL slope 2/1: no square found",
            "FAIL slope 3/1: word too long",
        ]


class TestCli:
    def test_certify_json(self, tmp_path, capsys):
        out = tmp_path / "cert.json"
        code = main(["certify", "--slope", "2/1", "--json", str(out), "--verify-oracle"])
        assert code == 0
        obj = json.loads(out.read_text())
        assert obj["slope"] == {"p": 2, "q": 1}
        assert obj["mirror_of"] is None
        assert "genus 1" in capsys.readouterr().out

    def test_negative_slope_mirrors(self, tmp_path, capsys):
        out = tmp_path / "cert.json"
        code = main(["certify", "--slope=-2/1", "--json", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["mirror_of"] == "-2/1"
        assert "mirror" in capsys.readouterr().out

    @pytest.mark.parametrize("slope", ["--slope=2/1", "--slope=-2/1"])
    def test_json_to_stdout_is_json_alone(self, slope, capsys):
        assert main(["certify", slope, "--json", "-"]) == 0
        captured = capsys.readouterr()
        obj = json.loads(captured.out)
        assert obj["slope"] == {"p": 2, "q": 1}
        assert "genus 1" in captured.err
        assert ("mirror" in captured.err) == (obj["mirror_of"] is not None)

    def test_slope_too_large_to_build_is_an_error_line(self, capsys):
        assert main(["certify", "--slope=99999999999999999999/7"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cable word of ")
        assert err.rstrip().endswith("letters is too long to build")

    def test_out_of_range_slope_fails(self, capsys):
        code = main(["certify", "--slope", "1/2"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_batch_exit_codes(self, tmp_path, capsys):
        slopes = tmp_path / "slopes.txt"
        slopes.write_text("# demo slopes\n2/1\n5/2\n")
        assert main(["batch", "--slopes", str(slopes)]) == 0
        slopes.write_text("2/1\n1/1\n")
        assert main(["batch", "--slopes", str(slopes)]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_batch_json_dir(self, tmp_path):
        slopes = tmp_path / "slopes.txt"
        slopes.write_text("2/1\n")
        outdir = tmp_path / "certs"
        assert main(["batch", "--slopes", str(slopes), "--json-dir", str(outdir)]) == 0
        assert (outdir / "certificate_2_1.json").exists()

    def test_certify_unwritable_json_is_an_error_line(self, tmp_path, capsys):
        out = tmp_path / "no" / "such" / "cert.json"
        assert main(["certify", "--slope", "3/2", "--json", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}")
        assert not out.parent.exists()

    def test_batch_unwritable_json_dir_is_an_error_line(self, tmp_path, capsys):
        slopes = tmp_path / "slopes.txt"
        slopes.write_text("2/1\n")
        outdir = slopes / "sub"  # a directory under a regular file
        assert main(["batch", "--slopes", str(slopes), "--json-dir", str(outdir)]) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot write {outdir}")

    def test_batch_non_utf8_slopes_file_is_an_error_line(self, tmp_path, capsys):
        slopes = tmp_path / "slopes.txt"
        slopes.write_bytes(b"\xff\xfe5/2\n")
        assert main(["batch", "--slopes", str(slopes)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot read {slopes}")
        assert "Traceback" not in captured.err

    def test_batch_slopes_file_may_start_with_a_bom(self, tmp_path, capsys):
        slopes = tmp_path / "slopes.txt"
        slopes.write_bytes(b"\xef\xbb\xbf2/1\n3/1\n")
        assert main(["batch", "--slopes", str(slopes)]) == 0
        assert "2/2 slopes certified" in capsys.readouterr().out

    def test_batch_keeps_a_slope_and_its_mirror_apart(self, tmp_path):
        slopes = tmp_path / "slopes.txt"
        slopes.write_text("5/2\n-5/2\n")
        outdir = tmp_path / "certs"
        assert main(["batch", "--slopes", str(slopes), "--json-dir", str(outdir)]) == 0
        plain = json.loads((outdir / "certificate_5_2.json").read_text())
        mirrored = (outdir / "certificate_5_2_mirror.json").read_text()
        assert plain["mirror_of"] is None
        assert json.loads(mirrored) == {**plain, "mirror_of": "-5/2"}
        single = tmp_path / "cert.json"
        assert main(["certify", "--slope=-5/2", "--json", str(single)]) == 0
        assert single.read_text() == mirrored
