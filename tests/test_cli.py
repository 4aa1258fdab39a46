"""Tests for the command-line front end (exit codes, CSV schemas)."""

import csv
import json

import numpy as np
import pytest

from tuckercheb import cli
from tuckercheb.oracle import SamplingError
from tuckercheb.serialize import deserialize

EXPR = "exp(x)*cos(y)*(z^2+1)"


def read_csv(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


@pytest.fixture(scope="module")
def stored(tmp_path_factory):
    """One approximant built via the CLI, reused across eval tests."""
    d = tmp_path_factory.mktemp("cli")
    out = d / "sep.tcheb"
    stats = d / "sep.json"
    code = cli.main([
        "approx", "--expr", EXPR, "--tol", "1e-10",
        "--out", str(out), "--stats", str(stats),
    ])
    assert code == cli.OK
    return out, stats


class TestApprox:
    def test_writes_loadable_file_and_stats(self, stored):
        out, stats = stored
        approx = deserialize(out.read_bytes())
        assert approx.evaluate(0.0, 0.0, 0.0) == pytest.approx(1.0, abs=1e-9)
        meta = json.loads(stats.read_text())
        assert meta["schema_version"] == 2
        assert meta["certified"] is True
        assert meta["ranks"] == [1, 1, 1]

    def test_catalog_name(self, tmp_path, capsys):
        code = cli.main(["approx", "--fn", "separable-demo", "--tol", "1e-8"])
        assert code == cli.OK
        text = capsys.readouterr().out
        assert "ranks" in text and "certified" in text

    def test_parse_error_exit_2(self, capsys):
        assert cli.main(["approx", "--expr", "sin(x"]) == cli.ERR_PARSE
        assert cli.main(["approx", "--fn", "no-such-fn"]) == cli.ERR_PARSE
        assert cli.main(["approx", "--fn", "shifted-inv(abc)"]) == cli.ERR_PARSE

    def test_nan_exit_3(self, capsys):
        assert cli.main(["approx", "--expr", "log(x-2)"]) == cli.ERR_NAN

    def test_uncertified_exit_4(self, monkeypatch, capsys):
        from tuckercheb.approximator import build as real_build

        def sloppy_build(fn, cfg):
            approx = real_build(fn, cfg)
            approx.stats["certified"] = False
            return approx

        monkeypatch.setattr(cli, "build", sloppy_build)
        code = cli.main(["approx", "--expr", EXPR, "--tol", "1e-8"])
        assert code == cli.ERR_NOT_CERTIFIED

    def test_bump_missed_by_phase1_exit_4(self, capsys):
        # known_answers.hidden_bump: only zeros in phase 1's first samples
        expr = "exp(-1e5*(x^2+(y+1/3)^2+(z+0.6)^2))"
        assert cli.main(["approx", "--expr", expr, "--tol", "1e-10"]) == cli.ERR_NOT_CERTIFIED

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0", "abc"])
    @pytest.mark.parametrize("argv", [
        ["approx", "--fn", "runge3"],
        ["study", "rankdeg", "--eps-list", "1e-1"],
        ["bench", "--fns", "runge3"],
    ])
    def test_bad_tol_exit_2(self, monkeypatch, capsys, argv, tol):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled with a bad --tol")

        monkeypatch.setattr(cli, "build", no_sampling)
        monkeypatch.setattr(cli, "fiber_degree", no_sampling)
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--tol", tol])
        assert exc.value.code == cli.ERR_PARSE
        assert "--tol" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["approx", "--fn", "runge3"],
        ["bench", "--fns", "runge3"],
    ])
    def test_seed_is_unknown_option(self, monkeypatch, capsys, argv):
        # a build depends on f and tol alone, so there is no --seed to take
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled with an unknown option")

        monkeypatch.setattr(cli, "build", no_sampling)
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--seed", "0"])
        assert exc.value.code == cli.ERR_PARSE
        assert "unrecognized arguments: --seed 0" in capsys.readouterr().err

    def test_deterministic_output_bytes(self, tmp_path):
        paths = [tmp_path / f"{i}.tcheb" for i in (0, 1)]
        for p in paths:
            assert cli.main(["approx", "--expr", EXPR, "--tol", "1e-8", "--out", str(p)]) == cli.OK
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestEval:
    def test_at_point(self, stored, capsys):
        out, _ = stored
        code = cli.main(["eval", "--in", str(out), "--at", "0.2", "-0.3", "0.5"])
        assert code == cli.OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "x,y,z,fhat"
        x, y, z, fhat = (float(v) for v in lines[1].split(","))
        expect = np.exp(0.2) * np.cos(-0.3) * (0.5**2 + 1)
        assert fhat == pytest.approx(expect, abs=1e-9)

    def test_points_file_with_compare(self, stored, tmp_path, capsys):
        out, _ = stored
        pts = tmp_path / "pts.csv"
        pts.write_text("# comment\n0.1,0.2,0.3\n-0.5,0.0,0.9\n")
        res = tmp_path / "res.csv"
        code = cli.main([
            "eval", "--in", str(out), "--points", str(pts),
            "--compare-expr", EXPR, "--out", str(res),
        ])
        assert code == cli.OK
        header, rows = read_csv(res)
        assert header == ["x", "y", "z", "fhat", "abs_error"]
        assert len(rows) == 2
        assert all(float(r[4]) < 1e-9 for r in rows)

    @pytest.mark.parametrize("text", ["", "# comment\n"])
    def test_points_file_without_rows(self, stored, tmp_path, capsys, text):
        out, _ = stored
        pts = tmp_path / "pts.csv"
        pts.write_text(text)
        code = cli.main(["eval", "--in", str(out), "--points", str(pts), "--compare-expr", EXPR])
        assert code == cli.OK
        assert capsys.readouterr().out.splitlines() == ["x,y,z,fhat,abs_error"]

    def test_missing_file_exit_5(self, tmp_path, capsys):
        assert cli.main(["eval", "--in", str(tmp_path / "nope"), "--at", "0", "0", "0"]) == cli.ERR_IO

    def test_corrupt_file_exit_5(self, tmp_path, capsys):
        bad = tmp_path / "bad.tcheb"
        bad.write_bytes(b"not an approximant")
        assert cli.main(["eval", "--in", str(bad), "--at", "0", "0", "0"]) == cli.ERR_IO

    def test_malformed_points_exit_5(self, stored, tmp_path, capsys):
        out, _ = stored
        pts = tmp_path / "pts.csv"
        pts.write_text("0.1,0.2\n")
        assert cli.main(["eval", "--in", str(out), "--points", str(pts)]) == cli.ERR_IO

    def test_outside_domain_exit_2(self, stored, tmp_path, capsys):
        out, _ = stored
        res = tmp_path / "res.csv"
        pts = tmp_path / "pts.csv"
        for bad in ("1.5", "nan"):
            pts.write_text(f"0.1,0.2,0.3\n0.0,{bad},0.0\n-0.2,{bad},0.0\n")
            for where in (["--at", "0", bad, "0"], ["--points", str(pts)]):
                code = cli.main(["eval", "--in", str(out), *where, "--out", str(res)])
                assert code == cli.ERR_PARSE
                assert f"(0.0, {float(bad)}, 0.0)" in capsys.readouterr().err
                assert not res.exists()


class TestStudies:
    def test_rankdeg_csv(self, tmp_path, capsys):
        out = tmp_path / "rd.csv"
        code = cli.main([
            "study", "rankdeg", "--eps-list", "1e-1,1e-2",
            "--tol", "1e-6", "--grid", "40", "--out", str(out),
        ])
        assert code == cli.OK
        assert capsys.readouterr().err == ""
        header, rows = read_csv(out)
        assert header == ["eps", "degree", "rank"]
        assert len(rows) == 2
        # sharper eps needs higher degree and at least the same rank
        assert int(rows[1][1]) > int(rows[0][1])
        assert int(rows[1][2]) >= int(rows[0][2])

    @pytest.mark.parametrize("grid, warns", [("100", True), ("257", False)])
    def test_rankdeg_warns_on_coarse_grid(self, monkeypatch, capsys, grid, warns):
        # the grid rule is checked before sampling; a one-point grid keeps the study cheap
        monkeypatch.setattr(cli, "cheb_points", lambda n: np.zeros(1))
        code = cli.main(["study", "rankdeg", "--eps-list", "1e-4", "--grid", grid])
        assert code == cli.OK
        err = capsys.readouterr().err
        assert ("warning" in err) is warns
        if warns:
            assert "--grid 224" in err

    def test_rankdeg_bad_eps_exit_2(self, capsys):
        code = cli.main(["study", "rankdeg", "--eps-list", "abc"])
        assert code == cli.ERR_PARSE
        assert cli.main(["study", "rankdeg", "--eps-list", "1e-2,0"]) == cli.ERR_PARSE
        assert cli.main(["study", "rankdeg", "--eps-list", "nan"]) == cli.ERR_PARSE
        assert cli.main(["study", "rankdeg", "--eps-list", "1e-2,inf"]) == cli.ERR_PARSE
        assert cli.main(["study", "rankdeg", "--eps-list", "1e-2", "--grid", "1"]) == cli.ERR_PARSE

    def test_bench_csv_schema(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code = cli.main([
            "bench", "--fns", "separable-demo", "--tol", "1e-8", "--out", str(out),
        ])
        assert code == cli.OK
        header, rows = read_csv(out)
        assert header == cli.BENCH_COLUMNS
        assert len(rows) == 1
        assert rows[0][0] == "separable-demo"
        assert int(rows[0][header.index("certified")]) == 1

    def test_bench_unknown_fn_exit_2(self, capsys):
        assert cli.main(["bench", "--fns", "no-such-fn"]) == cli.ERR_PARSE

    @pytest.mark.parametrize("fns", ["", " , "])
    def test_bench_no_functions_exit_2(self, monkeypatch, tmp_path, capsys, fns):
        out = tmp_path / "bench.csv"
        assert cli.main(["bench", "--fns", fns, "--out", str(out)]) == cli.ERR_PARSE
        assert "need at least one function" in capsys.readouterr().err
        assert not out.exists()

    def test_bench_names_stripped(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code = cli.main([
            "bench", "--fns", "separable-demo, logmix", "--tol", "1e-8", "--out", str(out),
        ])
        assert code == cli.OK
        _, rows = read_csv(out)
        assert [r[0] for r in rows] == ["separable-demo", "logmix"]


@pytest.mark.parametrize("argv", [
    ["approx", "--expr", EXPR, "--tol", "1e-8", "--out", "{missing}"],
    ["approx", "--expr", EXPR, "--tol", "1e-8", "--stats", "{missing}"],
    ["eval", "--in", "{stored}", "--at", "0", "0", "0", "--out", "{missing}"],
    ["study", "rankdeg", "--eps-list", "1e-1", "--tol", "1e-6", "--grid", "5", "--out", "{missing}"],
    ["bench", "--fns", "separable-demo", "--tol", "1e-8", "--out", "{missing}"],
], ids=["approx-out", "approx-stats", "eval", "rankdeg", "bench"])
def test_unwritable_output_exit_5(stored, monkeypatch, tmp_path, capsys, argv):
    def no_work(*args, **kwargs):
        raise AssertionError("worked before checking the output path")

    missing = tmp_path / "no-such-dir" / "out"
    argv = [a.format(missing=missing, stored=stored[0]) for a in argv]
    monkeypatch.setattr(cli, "build", no_work)
    monkeypatch.setattr(cli, "rankdeg", no_work)
    assert cli.main(argv) == cli.ERR_IO
    assert capsys.readouterr().err.splitlines()[-1].startswith("error: ")


@pytest.mark.parametrize("argv, code", [
    (["approx", "--expr", "sin(x", "--out", "{new}", "--stats", "{old}"], cli.ERR_PARSE),
    (["approx", "--expr", "log(x-2)", "--out", "{new}", "--stats", "{old}"], cli.ERR_NAN),
    (["approx", "--expr", "log(x-2)", "--out", "{old}", "--stats", "{new}"], cli.ERR_NAN),
    (["bench", "--fns", "separable-demo,no-such-fn", "--out", "{new}"], cli.ERR_PARSE),
    (["bench", "--fns", "separable-demo", "--tol", "1e-8", "--out", "{new}"], cli.ERR_NAN),
    (["bench", "--fns", "separable-demo", "--tol", "1e-8", "--out", "{old}"], cli.ERR_NAN),
], ids=["approx-parse", "approx-nan", "approx-nan-old-out", "bench-parse", "bench-nan", "bench-nan-old-out"])
def test_failed_command_leaves_outputs_alone(monkeypatch, tmp_path, capsys, argv, code):
    def nan_build(*args, **kwargs):
        raise SamplingError((0.0, 0.0, 0.0), float("nan"))

    if argv[0] == "bench":
        monkeypatch.setattr(cli, "build", nan_build)
    new, old = tmp_path / "new", tmp_path / "old"
    old.write_bytes(b"kept")
    assert cli.main([a.format(new=new, old=old) for a in argv]) == code
    assert not new.exists()
    assert old.read_bytes() == b"kept"
