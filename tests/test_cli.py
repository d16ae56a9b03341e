import numpy as np
import pytest

from stokesrbf import cli
from stokesrbf.cli import build_run_config, check_dense_size, main, parse_config_file
from stokesrbf.geometry import make_level_pointset


def run_cli(args):
    return main(list(args))


class TestConfigParsing:
    def test_key_value_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# comment line\n"
            "levels = 2\n"
            "beta=9.0  # trailing comment\n"
            "\n"
            "quad_points = 30\n",
            encoding="utf-8",
        )
        values = parse_config_file(path)
        assert values == {"levels": "2", "beta": "9.0", "quad_points": "30"}

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("levels 2\n")
        with pytest.raises(ValueError):
            parse_config_file(path)

    def test_flags_override_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("levels=2\nbeta=9.0\n")

        class Args:
            config = str(path)
            levels = 3
            beta = None
            nu = None
            tau = None
            quad_points = None
            eigen_levels = None
            out_csv = None
            out_summary = None

        config = build_run_config(Args())
        assert config.levels == 3  # flag wins
        assert config.beta == 9.0  # file value kept
        assert config.nu == 1.0  # default

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("lvls=2\n")

        class Args:
            config = str(path)

        with pytest.raises(ValueError):
            build_run_config(Args())

    def test_mu_is_not_a_setting(self, tmp_path):
        # the mesh ratio is fixed by the grids, so it is neither a config key
        # nor a flag
        path = tmp_path / "run.cfg"
        path.write_text("mu=0.3\n")

        class Args:
            config = str(path)

        with pytest.raises(ValueError, match="mu"):
            build_run_config(Args())
        with pytest.raises(SystemExit) as err:
            run_cli(["run", "--levels", "1", "--mu", "0.3"])
        assert err.value.code == 2

    def test_level_guard(self):
        class Args:
            config = None
            levels = 9
            beta = nu = tau = quad_points = eigen_levels = None
            out_csv = out_summary = None

        with pytest.raises(ValueError):
            build_run_config(Args())


class TestRunCommand:
    def test_single_level_run_and_determinism(self, tmp_path):
        args = [
            "run", "--levels", "1", "--quad-points", "30",
            "--eigen-levels", "1",
            "--out-csv", str(tmp_path / "a.csv"),
            "--out-summary", str(tmp_path / "a.txt"),
        ]
        assert run_cli(args) == 0
        first = (tmp_path / "a.csv").read_bytes()
        args[-3] = str(tmp_path / "b.csv")
        args[-1] = str(tmp_path / "b.txt")
        assert run_cli(args) == 0
        assert (tmp_path / "b.csv").read_bytes() == first
        text = first.decode()
        assert text.splitlines()[0] == "level,1"
        assert "velocity_l2" in text
        summary = (tmp_path / "a.txt").read_text()
        assert "published:" in summary

    def test_beta_override_halves_deltas(self, tmp_path):
        assert run_cli([
            "run", "--levels", "1", "--quad-points", "20",
            "--eigen-levels", "0", "--beta", str(18.779 / 2),
            "--out-csv", str(tmp_path / "h.csv"),
            "--out-summary", str(tmp_path / "h.txt"),
        ]) == 0
        row = (tmp_path / "h.csv").read_text().splitlines()[1]
        assert row.startswith("delta,")
        assert float(row.split(",")[1]) == pytest.approx(10.0002 / 2, abs=5e-3)
        # no reference comparison rows for a non-reference configuration
        assert "published:" not in (tmp_path / "h.txt").read_text()

    def test_solver_failure_exit_code(self, tmp_path, capsys):
        code = run_cli([
            "run", "--levels", "1", "--beta", "1e9",
            "--quad-points", "20", "--eigen-levels", "0",
            "--out-csv", str(tmp_path / "x.csv"),
            "--out-summary", str(tmp_path / "x.txt"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: not-positive-definite")

    @pytest.mark.parametrize("flags", [
        ["--beta", "nan"],
        ["--nu", "nan"],
        ["--tau", "nan"],
        ["--nu", "inf"],
    ])
    def test_rejects_nonfinite_settings(self, tmp_path, capsys, flags):
        # with nu = inf the run used to exit 0 and report nan for every error
        code = run_cli([
            "run", "--levels", "1", "--eigen-levels", "0", *flags,
            "--out-csv", str(tmp_path / "n.csv"),
            "--out-summary", str(tmp_path / "n.txt"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flags[0][2:] in err
        assert not (tmp_path / "n.csv").exists()

    def test_rejects_level_beyond_guard(self, capsys):
        assert run_cli(["run", "--levels", "9"]) == 2
        assert capsys.readouterr().err.startswith("error: levels")

    def test_rejects_grid_beyond_memory(self, tmp_path, capsys):
        # 10^8 Gauss-Legendre nodes need a 10^8 x 10^8 companion matrix
        # (80 PB); numpy used to fail allocating it with a traceback
        code = run_cli([
            "run", "--levels", "1", "--eigen-levels", "0", "--quad-points", "100000000",
            "--out-csv", str(tmp_path / "q.csv"),
            "--out-summary", str(tmp_path / "q.txt"),
        ])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: quad_points")
        assert not (tmp_path / "q.csv").exists()

    def test_grid_guard_counts_what_the_run_holds(self, monkeypatch, tmp_path, capsys):
        # 200 kB passes the level-1 dense guard (2 x 8 x 82^2 = 108 kB) and
        # the grid's coordinates and weights at q = 50 (48 x 50^2 = 120 kB),
        # but not what run_experiment holds on that grid (~340 kB)
        monkeypatch.setattr(cli.os, "sysconf",
                            lambda name: 1 if name == "SC_PAGE_SIZE" else 200_000)
        code = run_cli([
            "run", "--levels", "1", "--eigen-levels", "0", "--quad-points", "50",
            "--out-csv", str(tmp_path / "q.csv"),
            "--out-summary", str(tmp_path / "q.txt"),
        ])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: quad_points")
        assert not (tmp_path / "q.csv").exists()


class TestVerifyLemmas:
    def test_c8_passes(self, capsys):
        assert run_cli(["verify-lemmas"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 4
        assert "-130" in out and "-2471040" in out

    def test_low_smoothness_skips_bilaplacian_checks(self, capsys):
        assert run_cli(["verify-lemmas", "--k", "2"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 2
        assert "skipped" in out

    def test_rejects_k_zero(self, capsys):
        assert run_cli(["verify-lemmas", "--k", "0"]) == 2


class TestKernelInfo:
    def test_c8_table(self, capsys):
        assert run_cli(["kernel-info", "--d", "2", "--k", "4"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert len(lines) == 2 + 15  # header comment, column row, 15 coefficients
        assert any(",-65," in line for line in lines)
        ratios = {line.split(",")[3] for line in lines[2:] if line.split(",")[3]}
        assert len(ratios) == 1  # constant normalization ratio

    def test_small_case(self, capsys):
        assert run_cli(["kernel-info", "--d", "2", "--k", "1"]) == 0
        out = capsys.readouterr().out
        assert "integral_form" in out

    def test_unsupported(self, capsys):
        assert run_cli(["kernel-info", "--d", "2", "--k", "0"]) == 2


def test_dump_points(tmp_path, capsys):
    out = tmp_path / "pts.csv"
    assert run_cli(["dump-points", "--level", "2", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 1 + 81 + 32


def test_dump_matrix(tmp_path):
    out = tmp_path / "mat.bin"
    assert run_cli(["dump-matrix", "--level", "1", "--out", str(out)]) == 0
    raw = out.read_bytes()
    rows, cols = np.frombuffer(raw[:16], dtype="<u8")
    assert rows == cols == 82
    assert len(raw) == 16 + 82 * 82 * 8
    data = np.frombuffer(raw[16:], dtype="<f8").reshape(82, 82)
    assert np.abs(data - data.T).max() <= 1e-12 * np.abs(data).max()


class TestDumpMatrixArguments:
    def run_dump(self, tmp_path, *flags):
        out = tmp_path / "mat.bin"
        code = run_cli(["dump-matrix", "--out", str(out), *flags])
        return code, out

    def test_rejects_level_zero(self, tmp_path, capsys):
        code, out = self.run_dump(tmp_path, "--level", "0")
        assert code == 2
        assert capsys.readouterr().err.startswith("error: level")
        assert not out.exists()

    @pytest.mark.parametrize("delta", ["0", "-1", "nan", "inf"])
    def test_rejects_bad_delta(self, tmp_path, capsys, delta):
        # --delta 0 used to fall back to the scheduled delta without a word
        code, out = self.run_dump(tmp_path, "--level", "1", "--delta", delta)
        assert code == 2
        assert capsys.readouterr().err.startswith("error: delta")
        assert not out.exists()

    def test_explicit_delta_is_used(self, tmp_path, capsys):
        code, out = self.run_dump(tmp_path, "--level", "1", "--delta", "3.5")
        assert code == 0
        assert "(delta=3.5)" in capsys.readouterr().out

    def test_rejects_matrix_beyond_memory(self, tmp_path, capsys):
        # level 9: 2109442 unknowns, a 35.6 TB dense matrix
        code, out = self.run_dump(tmp_path, "--level", "9")
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


class _GuardPassed(Exception):
    """Raised by the stand-in for the first step after a command's guard."""


@pytest.mark.parametrize("level", [1, 2, 3, 4, 5])
def test_dense_size_guard_counts_the_unknowns(monkeypatch, tmp_path, capsys, level):
    # memory of exactly copies * 8 n^2 bytes passes and one byte less fails
    # only if the guard's closed-form n is the level's number of unknowns and
    # it counts the dense copies each command holds: run the matrix and its
    # Cholesky factor, dump-matrix the matrix alone
    n = make_level_pointset(level).n_functionals

    def passed(*args, **kwargs):
        raise _GuardPassed

    monkeypatch.setattr(cli.os, "sysconf",
                        lambda name: 1 if name == "SC_PAGE_SIZE" else memory)
    monkeypatch.setattr(cli, "run_experiment", passed)
    monkeypatch.setattr(cli, "make_level_pointset", passed)
    out = tmp_path / "mat.bin"
    for args, copies in ((["run", "--levels", str(level)], 2),
                         (["dump-matrix", "--level", str(level), "--out", str(out)], 1)):
        memory = copies * 8 * n * n
        with pytest.raises(_GuardPassed):
            run_cli(args)
        memory -= 1
        assert run_cli(args) == 2
        assert capsys.readouterr().err.startswith("error: levels")
    with pytest.raises(ValueError, match="levels"):
        check_dense_size(level, copies=1)
