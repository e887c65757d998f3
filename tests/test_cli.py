import contextlib
import io
import itertools
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from helpers import (
    angle_rows,
    ne_csv_oracle,
    ne_rows_oracle,
    ne_stdout_oracle,
    save_game_file,
    serialize_game_file,
    surface_csv_oracle,
    surface_rows_oracle,
)
from qgame import (
    ClassicalGame,
    EwlGame,
    GameFile,
    GameFileError,
    GameMapping,
    ParamGrid,
    StrategySpace,
    SU2Params,
    load_game_file,
    parse_game_file,
    parse_space,
    two_param_payoff_closed_form,
)
from qgame import cli, games
from qgame.cli import main
from qgame.ewl import BLOCK_BYTES, game_bytes
from qgame.search import (
    GridEquilibria,
    _block_strategies,
    grid_equilibria,
    grid_payoff_tables,
    grid_pure_ne,
)

GAMES = Path(__file__).resolve().parent.parent / "games"
BUNDLED = sorted(GAMES.glob("*.game"))


class Writes(list):
    """A text stream, or an open file, that keeps each write."""

    write = list.append

    def flush(self):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        pass


class TestGameFileFormat:
    @pytest.mark.parametrize("path", BUNDLED, ids=lambda p: p.name)
    def test_round_trip_is_identity(self, path):
        first = parse_game_file(path.read_text())
        text = serialize_game_file(first)
        second = parse_game_file(text)
        assert first.game == second.game
        assert first.spaces == second.spaces
        # serialized form is a fixed point
        assert serialize_game_file(second) == text

    def test_spaces_round_trip(self):
        gf = load_game_file(GAMES / "pd.game")
        with_spaces = GameFile(gf.game, (StrategySpace.TWO_PARAM_ALPHA, StrategySpace.FULL_SU2))
        text = serialize_game_file(with_spaces)
        assert "space 1: alpha" in text
        again = parse_game_file(text)
        assert again.spaces == with_spaces.spaces

    def test_comments_and_blank_lines_ignored(self):
        text = (
            "# heading\n\nplayers: 2\n"
            "strategies 1: a b  # trailing\nstrategies 2: x y\n"
            "payoff (a,x): 1 2\npayoff (a,y): 3 4\n"
            "payoff (b,x): 5 6\npayoff (b,y): 7 8\n"
        )
        gf = parse_game_file(text)
        assert tuple(gf.game.payoffs[1, 1]) == (7.0, 8.0)

    @pytest.mark.parametrize(
        "mutation, line",
        [
            ("payoff (t,l): 3 3", 5),  # duplicated payoff line
            ("payoff (t,z): 3 3", 5),  # unknown label
            ("payoff (t,l): 3", 5),  # wrong arity
            ("nonsense", 5),
        ],
    )
    def test_errors_carry_line_numbers(self, mutation, line):
        text = (
            "players: 2\nstrategies 1: t b\nstrategies 2: l r\n"
            "payoff (t,l): 3 3\n" + mutation + "\n"
            "payoff (t,r): 0 5\npayoff (b,l): 5 0\npayoff (b,r): 1 1\n"
        )
        with pytest.raises(GameFileError) as err:
            parse_game_file(text)
        assert err.value.line == line

    def test_incomplete_table_rejected(self):
        text = "players: 2\nstrategies 1: t b\nstrategies 2: l r\npayoff (t,l): 3 3\n"
        with pytest.raises(GameFileError, match="incomplete"):
            parse_game_file(text)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_payoff_rejected(self, value):
        text = (
            "players: 2\nstrategies 1: t b\nstrategies 2: l r\n"
            f"payoff (t,l): 3 3\npayoff (t,r): 0 {value}\n"
            "payoff (b,l): 5 0\npayoff (b,r): 1 1\n"
        )
        with pytest.raises(GameFileError, match="payoffs must be finite numbers") as err:
            parse_game_file(text)
        assert err.value.line == 5


class TestIsoCommand:
    def test_pd_pair_isomorphic(self, capsys):
        code = main(["iso", str(GAMES / "pd.game"), str(GAMES / "pd_swapped.game")])
        out = capsys.readouterr().out
        assert code == 0
        assert "iso 1:" in out
        assert "verdict: isomorphic" in out

    def test_identity_on_same_file(self, capsys):
        code = main(["iso", str(GAMES / "pd.game"), str(GAMES / "pd.game")])
        out = capsys.readouterr().out
        assert code == 0
        assert "t->t" in out
        assert "strategic equivalence: player 1: alpha=1 beta=0" in out

    def test_antidiagonal_pair_negative(self, capsys):
        code = main(["iso", str(GAMES / "antidiag.game"), str(GAMES / "antidiag_swapped.game")])
        out = capsys.readouterr().out
        assert code == 1
        assert "no strong isomorphism" in out

    def test_malformed_file_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.game"
        bad.write_text("players: 2\nstrategies 1: a a\n")
        code = main(["iso", str(bad), str(bad)])
        err = capsys.readouterr().err
        assert code == 2
        assert "line 2" in err

    @pytest.mark.parametrize(
        "text,message",
        [
            ("players: 2\nstrategies 1: t,b\n", "line 2: strategy labels cannot contain ','"),
            ("players: 1\nspace 1: one\nspace 1: full\n", "line 3: duplicate space line"),
        ],
        ids=["label-character", "duplicate-space"],
    )
    def test_unusable_line_exit_2(self, text, message, tmp_path, capsys):
        bad = tmp_path / "bad.game"
        bad.write_text(text)
        assert main(["iso", str(bad), str(GAMES / "pd.game")]) == 2
        assert message in capsys.readouterr().err

    def test_missing_file_exit_2(self, capsys):
        assert main(["iso", "/nonexistent.game", "/nonexistent.game"]) == 2

    def test_constant_five_by_five_game_lists_every_mapping(self, tmp_path, capsys):
        # all 2 * 120^2 mappings are isomorphisms, found in lexicographic
        # order: eta, then player 1's bijection, then player 2's
        g = ClassicalGame([[f"s{k}" for k in range(5)]] * 2, np.zeros((5, 5, 2)))
        save_game_file(GameFile(g), tmp_path / "c.game")
        assert main(["iso", str(tmp_path / "c.game"), str(tmp_path / "c.game")]) == 0
        lines = capsys.readouterr().out.splitlines()
        perms = list(itertools.permutations(range(5)))
        mappings = [
            GameMapping(eta, phi) for eta in [(0, 1), (1, 0)] for phi in itertools.product(perms, perms)
        ]
        described = [cli._describe_mapping(f, g, g) for f in mappings]
        assert lines[1:-2] == [f"iso {k}: {text}" for k, text in enumerate(described, start=1)]
        assert len(mappings) == 28_800


class TestLiftVerifyCommand:
    def test_pd_pair_passes(self, capsys):
        code = main(
            ["lift-verify", str(GAMES / "pd.game"), str(GAMES / "pd_swapped.game"), "--seed", "9"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "# seed: 9" in out
        assert "all lifted mappings verified" in out

    def test_three_player_pair_passes(self, capsys):
        code = main(
            [
                "lift-verify",
                str(GAMES / "three_player.game"),
                str(GAMES / "three_player_image.game"),
                "--samples",
                "60",
            ]
        )
        assert code == 0

    def test_no_isomorphism_exit_1(self, capsys):
        code = main(
            ["lift-verify", str(GAMES / "antidiag.game"), str(GAMES / "antidiag_swapped.game")]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "no strong isomorphism" in out

    def test_deterministic_output_under_seed(self, capsys):
        args = ["lift-verify", str(GAMES / "pd.game"), str(GAMES / "pd_swapped.game"), "--seed", "3"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        second = capsys.readouterr().out
        assert first == second

    def test_env_seed_used(self, capsys, monkeypatch):
        monkeypatch.setenv("QGAME_SEED", "123")
        main(["lift-verify", str(GAMES / "pd.game"), str(GAMES / "pd_swapped.game")])
        out = capsys.readouterr().out
        assert "# seed: 123" in out

    @pytest.mark.parametrize("samples", ["0", "-1"])
    @pytest.mark.parametrize(
        "pair", [("pd.game", "pd_swapped.game"), ("antidiag.game", "antidiag_swapped.game")]
    )
    def test_sample_count_below_one_exit_2(self, pair, samples, capsys):
        args = [str(GAMES / pair[0]), str(GAMES / pair[1]), "--samples", samples]
        code = main(["lift-verify", *args])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: need at least one sample, got {samples}\n"

    @pytest.mark.parametrize(
        "shape,message",
        [((3, 3), "EWL quantization needs a binary game"), ((2,) * 5, "at most 4 players supported")],
        ids=["3-strategy", "5-player"],
    )
    @pytest.mark.parametrize("isomorphic", [True, False], ids=["isomorphic", "not-isomorphic"])
    def test_game_ewl_cannot_quantize_exit_2_before_the_search(
        self, shape, message, isomorphic, tmp_path, capsys, monkeypatch
    ):
        # the same refusal whether or not the two games are isomorphic
        rng = np.random.default_rng(len(shape))
        labels = tuple(tuple("abc"[:m]) for m in shape)
        a, b = (ClassicalGame(labels, rng.uniform(0, 10, (*shape, len(shape)))) for _ in range(2))
        for name, game in (("a.game", a), ("b.game", a if isomorphic else b)):
            save_game_file(GameFile(game), tmp_path / name)
        search = mock.Mock(wraps=cli.find_strong_isomorphisms)
        monkeypatch.setattr(cli, "find_strong_isomorphisms", search)
        assert main(["lift-verify", str(tmp_path / "a.game"), str(tmp_path / "b.game")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        search.assert_not_called()

    def test_space_escape_reported(self, tmp_path, capsys):
        # both files restricted to the alpha plane: the lifted column
        # swap leaves the declared space, so verification cannot pass
        for name in ("pd.game", "pd_swapped.game"):
            text = (GAMES / name).read_text()
            (tmp_path / name).write_text(
                text + "space 1: alpha\nspace 2: alpha\n"
            )
        code = main(
            ["lift-verify", str(tmp_path / "pd.game"), str(tmp_path / "pd_swapped.game")]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "space-escape" in out


class TestNeCommand:
    def test_classical_embedding(self, capsys):
        code = main(
            ["ne", str(GAMES / "pd.game"), "--spaces", "one", "--grid", "2,1,1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "profiles found: 1" in out
        assert "payoffs [1 1]" in out

    def test_quantum_pd_finds_magic_profile(self, capsys):
        code = main(
            ["ne", str(GAMES / "pd.game"), "--spaces", "alpha", "--grid", "9,17,1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "payoffs [3 3]" in out

    def test_swapped_pd_negative(self, capsys):
        code = main(
            [
                "ne",
                str(GAMES / "pd_swapped.game"),
                "--spaces",
                "alpha,alpha",
                "--grid",
                "9,17,1",
                "--eps",
                "0.05",
            ]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "no equilibria" in out

    def test_full_su2_north_star_grid_has_no_equilibrium(self, capsys):
        # 17,408 strategies per player, searched one block at a time
        code = main(["ne", str(GAMES / "pd.game"), "--spaces", "full", "--grid", "17,33,33"])
        assert code == 1
        assert "profiles found: 0" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "spaces,message",
        [("bogus", "unknown strategy space"), ("one,one,one", "need one space per player, got 3 for 2")],
    )
    def test_bad_spaces_exit_2(self, spaces, message, capsys):
        code = main(["ne", str(GAMES / "pd.game"), "--spaces", spaces])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert message in err

    def test_csv_into_a_missing_directory_exit_3(self, tmp_path, capsys):
        path = tmp_path / "missing" / "ne.csv"
        argv = ["ne", str(GAMES / "pd.game"), "--spaces", "one", "--grid", "2,1,1"]
        code = main(argv + ["--csv", str(path)])
        out, err = capsys.readouterr()
        assert code == 3
        # stdout is written before the CSV is opened
        assert "verdict: 1 equilibria" in out
        assert f"cannot write {path}" in err and not path.parent.exists()

    @pytest.mark.parametrize("eps", ["nan", "-1", "inf"])
    @pytest.mark.parametrize("game", ["pd.game", "missing.game"])
    def test_eps_not_finite_and_non_negative_exit_2(self, eps, game, capsys):
        # checked before the game is loaded, so a missing file does not mask it
        code = main(["ne", str(GAMES / game), "--eps", eps])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith("error: eps must be a finite number >= 0")

    def test_csv_output(self, tmp_path, capsys):
        out_path = tmp_path / "ne.csv"
        code = main(
            [
                "ne",
                str(GAMES / "pd.game"),
                "--spaces",
                "one",
                "--grid",
                "2,1,1",
                "--csv",
                str(out_path),
            ]
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0].startswith("theta1,alpha1,beta1,theta2")
        assert len(lines) == 2

    # (game, --spaces, --grid, --eps, exit code, fewest rows); eps sits at
    # the payoff gaps so that hundreds of rows survive. "rand4" is a
    # seeded 4-player game written with its spaces in the file.
    @pytest.mark.parametrize(
        "game,spaces,grid,eps,code,rows",
        [
            ("pd.game", "alpha", "9,17,1", 1.0, 0, 500),
            ("pd_swapped.game", "full", "5,5,3", 2.5, 0, 100),
            ("antidiag.game", "beta", "9,9,9", 0.5, 0, 500),
            ("pd.game", "one", "33,1,1", 1.0, 0, 500),
            ("three_player.game", "alpha,one,full", "5,5,3", 2.5, 0, 500),
            ("rand4", None, "3,5,3", 2.0, 0, 1000),
            ("pd_swapped.game", "alpha", "9,17,1", 0.05, 1, 0),
        ],
    )
    def test_output_bytes_match_the_per_field_renderer(
        self, game, spaces, grid, eps, code, rows, tmp_path, capsys
    ):
        if game == "rand4":
            path = tmp_path / "rand4.game"
            rng = np.random.default_rng(3)
            g = ClassicalGame((("a", "b"),) * 4, rng.uniform(0, 10, size=(2,) * 4 + (4,)))
            names = ("full", "beta", "one", "alpha")
            save_game_file(GameFile(g, tuple(parse_space(s) for s in names)), path)
        else:
            path = GAMES / game
        csv_path = tmp_path / "ne.csv"
        argv = ["ne", str(path), "--grid", grid, "--eps", repr(eps), "--csv", str(csv_path)]
        if spaces:
            argv += ["--spaces", spaces]
        assert main(argv) == code
        out = capsys.readouterr().out

        gf = load_game_file(path)
        n = gf.game.n_players
        space_tuple = gf.spaces
        if spaces:
            names = spaces.split(",")
            space_tuple = tuple(parse_space(s) for s in names * (n // len(names)))
        game_q = EwlGame(gf.game, space_tuple)
        t, a, b = (int(v) for v in grid.split(","))
        found = grid_pure_ne(game_q, ParamGrid(t, a, b), eps)
        assert len(found) >= rows
        assert out == ne_stdout_oracle(path, eps, grid, game_q.spaces, found)
        assert csv_path.read_bytes() == ne_csv_oracle(n, found).encode("utf-8")


class TestSurfaceCommand:
    def test_three_by_three_grid(self, tmp_path, capsys):
        out_path = tmp_path / "surface.csv"
        code = main(
            [
                "surface",
                str(GAMES / "pd_swapped.game"),
                "--player",
                "1",
                "--opponent",
                "0,0",
                "--grid",
                "3,3",
                "--csv",
                str(out_path),
            ]
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "theta,alpha,payoff1,payoff2"
        assert len(lines) == 1 + 9
        # corner rows agree with the closed-form payoff
        for row in lines[1:]:
            t, a, u1, u2 = (float(v) for v in row.split(","))
            c1, c2 = two_param_payoff_closed_form((t, a), (0.0, 0.0), (3, 0, 5, 1))
            assert abs(u1 - c1) < 1e-10 and abs(u2 - c2) < 1e-10
        first = lines[1].split(",")
        assert float(first[2]) == pytest.approx(0.0, abs=1e-12)  # sucker payoff
        assert float(first[3]) == pytest.approx(5.0, abs=1e-12)  # temptation payoff

    def test_degenerate_grid_single_row(self, capsys):
        code = main(
            ["surface", str(GAMES / "pd.game"), "--opponent", "0,0", "--grid", "1,1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert len(out.splitlines()) == 2

    @pytest.mark.parametrize("t_steps,a_steps", [(2, 5), (4, 1), (5, 5)])
    def test_row_count_is_product(self, t_steps, a_steps, capsys):
        code = main(
            [
                "surface",
                str(GAMES / "pd.game"),
                "--opponent",
                "1,2",
                "--grid",
                f"{t_steps},{a_steps}",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert len(out.splitlines()) == 1 + t_steps * a_steps

    def test_unwritable_path_exit_3(self, capsys):
        code = main(
            [
                "surface",
                str(GAMES / "pd.game"),
                "--grid",
                "2,2",
                "--csv",
                "/nonexistent-dir/out.csv",
            ]
        )
        assert code == 3

    @pytest.mark.parametrize(
        "game,args,message",
        [
            ("three_player.game", ["--grid", "2,2"], "surface needs a 2-player game"),
            ("pd.game", ["--player", "3"], "player must be 1 or 2"),
            ("pd.game", ["--grid", "0,5"], "grid steps must be positive"),
        ],
    )
    def test_bad_input_exit_2(self, game, args, message, capsys):
        code = main(["surface", str(GAMES / game), *args])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert message in err

    @pytest.mark.parametrize("opponent", ["1,inf", "1,nan,0", "1,0,-inf"])
    def test_non_finite_opponent_phase_exit_2(self, opponent, capsys):
        argv = ["surface", str(GAMES / "pd_swapped.game"), "--opponent", opponent, "--grid", "2,2"]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "alpha and beta must be finite" in captured.err

    @pytest.mark.parametrize(
        "player,opponent,grid",
        [
            (1, "0.3,5", "33,65"),
            (2, "1,2,0.5", "17,33"),
            (1, "0,0", "1,1"),
            (2, "3,6.2", "4,1"),
            (1, "2,1", "1,5"),
            # several write blocks, the last of one point
            (1, "0.3,5", "1025,1"),
            (2, "1,2,0.5", "1025,1"),
            (1, "2,1", "5,205"),
        ],
    )
    def test_bytes_match_the_per_field_renderer(self, player, opponent, grid, tmp_path, capsys):
        path = GAMES / "pd_swapped.game"
        argv = ["surface", str(path), "--player", str(player), "--opponent", opponent, "--grid", grid]
        csv_path = tmp_path / "surface.csv"
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert main(argv + ["--csv", str(csv_path)]) == 0
        game = EwlGame(load_game_file(path).game)
        opp = SU2Params(*(float(v) for v in opponent.split(",")))
        t_steps, a_steps = (int(v) for v in grid.split(","))
        expected = surface_csv_oracle(game, player - 1, opp, t_steps, a_steps)
        assert out == expected
        assert csv_path.read_bytes() == expected.encode("utf-8")


def expected_ne(path, grid, eps, spaces, found):
    """`ne` stdout and CSV text for `found`, rows from `ne_rows_oracle`."""
    k = len(found.eps)
    n = len(found.angles)
    head = [
        f"# command: ne {path}",
        f"# tolerances: eps={eps:g}",
        f"spaces: {spaces}; grid: {grid}; profiles found: {k}",
    ]
    verdict = f"verdict: {k} equilibria" if k else "verdict: no equilibria"
    stdout = "\n".join(head + ne_rows_oracle(found, csv=False) + [verdict]) + "\n"
    cols = [f"theta{i},alpha{i},beta{i}" for i in range(1, n + 1)]
    cols += [f"payoff{i}" for i in range(1, n + 1)] + ["improvement"]
    csv = "".join(r + "\n" for r in [",".join(cols)] + ne_rows_oracle(found, csv=True))
    return stdout, csv


class TestRowTemplates:
    """`ne` and `surface` bytes against one float template per row, on
    real searches and on hand-built results with signed zeros and
    repeated values."""

    def run_ne(self, path, grid, eps, spaces, tmp_path, capsys):
        csv_path = tmp_path / "ne.csv"
        argv = ["ne", str(path), "--grid", grid, "--eps", repr(eps), "--csv", str(csv_path)]
        argv += ["--spaces", spaces] if spaces else []
        code = main(argv)
        return code, capsys.readouterr().out, csv_path.read_text(encoding="utf-8")

    @pytest.mark.parametrize(
        "game,spaces,grid,eps",
        [
            ("pd.game", "alpha", "17,33,1", 1.0),
            ("pd_swapped.game", "full", "5,5,3", 2.5),
            ("three_player.game", "alpha,one,full", "5,5,3", 2.5),
            ("pd_swapped.game", "alpha", "9,17,1", 0.05),
        ],
    )
    def test_ne_bytes_match_the_float_templates(self, game, spaces, grid, eps, tmp_path, capsys):
        path = GAMES / game
        code, out, csv = self.run_ne(path, grid, eps, spaces, tmp_path, capsys)
        gf = load_game_file(path)
        n = gf.game.n_players
        names = spaces.split(",")
        game_q = EwlGame(gf.game, tuple(parse_space(s) for s in names * (n // len(names))))
        t, a, b = (int(v) for v in grid.split(","))
        found = grid_equilibria(game_q, ParamGrid(t, a, b), eps)
        assert code == (0 if len(found.eps) else 1)
        names = ",".join(s.value for s in game_q.spaces)
        assert (out, csv) == expected_ne(path, grid, eps, names, found)

    @pytest.mark.parametrize("block", [1, 7, 1024])
    def test_ne_stdout_goes_out_in_blocks(self, block, monkeypatch):
        argv = ["ne", str(GAMES / "pd.game"), "--spaces", "alpha", "--grid", "17,33,1"]
        argv += ["--eps", "1.0"]

        def run():
            monkeypatch.setattr(sys, "stdout", Writes())
            assert main(argv) == 0
            return sys.stdout

        monkeypatch.setattr(cli, "LINES_PER_WRITE", 1 << 30)
        whole = run()
        monkeypatch.setattr(cli, "LINES_PER_WRITE", block)
        writes = run()
        # the # lines and the summary, the rows by blocks, then the verdict
        body = "".join(whole[1:-1]).count("\n")
        assert len(whole) == 3 and body > 1024
        assert len(writes) == 2 + -(-body // block)
        assert "".join(writes) == "".join(whole)

    @pytest.mark.parametrize(
        "argv",
        [
            ["iso", str(GAMES / "pd.game"), str(GAMES / "pd_swapped.game")],
            ["lift-verify", str(GAMES / "pd.game"), str(GAMES / "pd_swapped.game")],
            ["identities", "--samples", "3"],
        ],
        ids=["iso", "lift-verify", "identities"],
    )
    def test_report_goes_out_in_two_writes(self, argv, monkeypatch):
        monkeypatch.setattr(sys, "stdout", Writes())
        assert main(argv) == 0
        head, verdict = sys.stdout
        assert head.startswith("# command: ") and "\nverdict: " not in head
        assert verdict.startswith("verdict: ") and verdict.count("\n") == 1

    @pytest.mark.parametrize("block", [1, 7, 1024])
    @pytest.mark.parametrize("command", ["surface", "surface --csv", "ne --csv"])
    def test_tables_go_out_in_blocks(self, command, block, monkeypatch):
        # `surface` on 33x65 points, or `ne`'s 7,441 rows: the header
        # line in one write, then one write per block of rows
        if command.startswith("surface"):
            argv = ["surface", str(GAMES / "pd_swapped.game"), "--grid", "33,65"]
        else:
            argv = ["ne", str(GAMES / "pd.game"), "--spaces", "alpha", "--grid", "17,33,1"]
            argv += ["--eps", "1.0"]
        if command.endswith("--csv"):
            argv += ["--csv", "out.csv"]

        def run():
            out, csv = Writes(), Writes()
            monkeypatch.setattr(sys, "stdout", out)
            monkeypatch.setattr(cli, "open", lambda *args, **kwargs: csv, raising=False)
            assert main(argv) == 0
            return csv if "--csv" in argv else out

        monkeypatch.setattr(cli, "LINES_PER_WRITE", 1 << 30)
        whole = run()
        monkeypatch.setattr(cli, "LINES_PER_WRITE", block)
        writes = run()
        rows = "".join(whole[1:]).count("\n")
        assert len(whole) == 2 and rows > 1024
        assert whole[0].count("\n") == 1
        assert len(writes) == 1 + -(-rows // block)
        assert "".join(writes) == "".join(whole)

    def test_ne_signed_zeros_and_repeats(self, tmp_path, capsys, monkeypatch):
        angles = np.array([[0.0, -0.0, 0.0], [math.pi, 0.0, -0.0], [1.0, 2.0, 3.0]])
        found = GridEquilibria(
            (angles, angles[:2].copy()),
            np.array([[0, 0], [1, 0], [2, 1], [0, 1], [1, 1], [2, 0]]),
            np.array([0.0, -0.0, 1e-10, 1e-10, -0.0, 0.25]),
            np.array(
                [[0.0, -0.0], [-0.0, 0.0], [1.5, 1.5], [1.5, 1 / 3], [-0.0, -0.0], [1 / 3, 0.0]]
            ),
        )
        monkeypatch.setattr(cli, "grid_equilibria", lambda game, grid, eps, max_rows: found)
        path = GAMES / "pd.game"
        code, out, csv = self.run_ne(path, "3,3,1", 1.0, "alpha", tmp_path, capsys)
        assert code == 0
        assert (out, csv) == expected_ne(path, "3,3,1", 1.0, "alpha,alpha", found)
        assert "\n  (3.14159,0,-0) (0,-0,0) payoffs [-0 0] improvement -0.000e+00\n" in out
        assert "\n3.14159265358979,0,-0,0,-0,0,-0,0,-0\n" in csv

    @pytest.mark.parametrize("hand_built", [False, True])
    def test_surface_bytes_match_the_float_template(self, hand_built, tmp_path, capsys, monkeypatch):
        t_steps, a_steps = 5, 9
        if hand_built:
            values = np.array([0.0, -0.0, 1 / 3, 1 / 3, -1.25, 0.0] * 8)[: t_steps * a_steps]
            tables = [values.reshape(-1, 1), values[::-1].reshape(-1, 1).copy()]
            monkeypatch.setattr(cli, "grid_payoff_tables", lambda game, lists: tables)
        else:
            game = EwlGame(load_game_file(GAMES / "pd_swapped.game").game)
            mine = angle_rows(
                SU2Params(t, a, 0.0)
                for t in np.linspace(0.0, math.pi, t_steps)
                for a in np.linspace(0.0, 2 * math.pi, a_steps)
            )
            tables = grid_payoff_tables(game, [mine, np.array([[1.0, 2.0, 0.0]])])
        csv_path = tmp_path / "surface.csv"
        argv = ["surface", str(GAMES / "pd_swapped.game"), "--opponent", "1,2"]
        assert main(argv + ["--grid", f"{t_steps},{a_steps}", "--csv", str(csv_path)]) == 0
        thetas = np.repeat(np.linspace(0.0, math.pi, t_steps), a_steps)
        alphas = np.tile(np.linspace(0.0, 2 * math.pi, a_steps) % (2 * math.pi), t_steps)
        rows = surface_rows_oracle(thetas, alphas, *(t.reshape(-1) for t in tables))
        expected = "".join(r + "\n" for r in ["theta,alpha,payoff1,payoff2"] + rows)
        assert csv_path.read_text(encoding="utf-8") == expected


def signed_pool(pool):
    """The drawn floats plus both zeros, as float64."""
    return np.array(pool + [0.0, -0.0])


VALUE_POOLS = st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=5)
BLOCK = cli.LINES_PER_WRITE
# no shrink phase: an example renders up to a thousand rows, and shrinking
# the seed of a failing one can take minutes
NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate)


class TestBlockRenderer:
    """`ne` and `surface` bytes on hand-built results of every player
    count, at the edges of the write blocks, with signed zeros and
    values drawn from small pools (so they repeat), against one float
    template per row."""

    @staticmethod
    def game_text(n):
        strategies = "".join(f"strategies {i}: a b\n" for i in range(1, n + 1))
        payoffs = "".join(
            f"payoff ({','.join(p)}): {' '.join(['1'] * n)}\n"
            for p in itertools.product("ab", repeat=n)
        )
        return f"players: {n}\n" + strategies + payoffs

    @given(
        n=st.integers(1, 4),
        k=st.sampled_from([0, 1, BLOCK - 1, BLOCK, BLOCK + 1]),
        pool=VALUE_POOLS,
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None, phases=NO_SHRINK)
    def test_ne_bytes_match_the_oracle(self, n, k, pool, seed):
        rng = np.random.default_rng(seed)
        pool = signed_pool(pool)
        # a player may share an earlier player's angle array, as players
        # with equal steps and space do
        angles = []
        for i in range(n):
            if i and rng.random() < 0.5:
                angles.append(angles[rng.integers(i)])
            else:
                angles.append(rng.choice(pool, (rng.integers(1, 5), 3)))
        payoffs = rng.choice(pool, (k, n))
        if k and n > 1 and rng.random() < 0.5:
            # one value in two columns, and -0.0 next to 0.0
            payoffs[0, :2] = [-0.0, 0.0]
            payoffs[-1, 1] = payoffs[-1, 0]
        found = GridEquilibria(
            tuple(angles),
            np.stack([rng.integers(0, len(a), k) for a in angles], axis=1),
            rng.choice(pool, k),
            payoffs,
        )
        with tempfile.TemporaryDirectory() as tmp:
            path, csv_path = Path(tmp) / "hand.game", Path(tmp) / "ne.csv"
            path.write_text(self.game_text(n), encoding="utf-8")
            argv = ["ne", str(path), "--spaces", "one", "--grid", "3,1,1", "--eps", "1.0"]
            out = io.StringIO()
            with mock.patch.object(cli, "grid_equilibria", lambda game, grid, eps, max_rows: found):
                with contextlib.redirect_stdout(out):
                    code = main(argv + ["--csv", str(csv_path)])
            csv = csv_path.read_bytes()
            stdout, want_csv = expected_ne(path, "3,1,1", 1.0, ",".join(["one"] * n), found)
        assert code == (0 if k else 1)
        assert out.getvalue() == stdout
        assert csv == want_csv.encode("utf-8")

    @given(
        grid=st.sampled_from([(1, 1), (1, BLOCK - 1), (BLOCK, 1), (1, BLOCK + 1), (5, 9)]),
        pool=VALUE_POOLS,
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=30, deadline=None, phases=NO_SHRINK)
    def test_surface_bytes_match_the_oracle(self, grid, pool, seed):
        # at least one row: surface grids have at least one step per axis
        t_steps, a_steps = grid
        rng = np.random.default_rng(seed)
        tables = [rng.choice(signed_pool(pool), (t_steps * a_steps, 1)) for _ in range(2)]
        argv = ["surface", str(GAMES / "pd_swapped.game"), "--grid", f"{t_steps},{a_steps}"]
        thetas = np.repeat(np.linspace(0.0, math.pi, t_steps), a_steps)
        alphas = np.tile(np.linspace(0.0, 2 * math.pi, a_steps) % (2 * math.pi), t_steps)
        rows = surface_rows_oracle(thetas, alphas, *(t.reshape(-1) for t in tables))
        expected = "".join(r + "\n" for r in ["theta,alpha,payoff1,payoff2"] + rows)
        done = []

        def block_tables(game, lists):
            # surface asks for one block of points at a time, in order
            start = sum(done) % (t_steps * a_steps)
            mine = lists[0]
            done.append(len(mine))
            assert mine[:, 0].tolist() == thetas[start : start + len(mine)].tolist()
            assert mine[:, 1].tolist() == alphas[start : start + len(mine)].tolist()
            return [t[start : start + len(mine)] for t in tables]

        with tempfile.TemporaryDirectory() as tmp:
            csv_path = Path(tmp) / "surface.csv"
            out = io.StringIO()
            with mock.patch.object(cli, "grid_payoff_tables", block_tables):
                with contextlib.redirect_stdout(out):
                    assert main(argv) == 0
                assert main(argv + ["--csv", str(csv_path)]) == 0
            csv = csv_path.read_bytes()
        assert out.getvalue() == expected
        assert csv == expected.encode("utf-8")


class TestTable:
    @given(
        k=st.sampled_from([0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1]),
        pool=VALUE_POOLS,
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=30, deadline=None, phases=NO_SHRINK)
    def test_bytes_match_the_per_row_oracle(self, k, pool, seed):
        rng = np.random.default_rng(seed)
        pool = signed_pool(pool)
        rows3, values, other = (rng.choice(pool, size) for size in [(4, 3), 6, 5])
        # `values` under one format twice and under a second format once,
        # and `other` under one of those formats too
        fields = [
            ("<%.6g,%.6g,%.6g> ", rows3),
            ("%.15g,", values),
            ("%.10g|", values),
            ("%.15g,", values),
            ("%.15g,", other),
            ("%.3e\n", other),
        ]
        wheres = [rng.integers(0, len(v), k) for _, v in fields]
        distinct = [(v, w) for (_, v), w in zip(fields, wheres)]
        blocks = list(cli._table([f for f, _ in fields], distinct))
        want = [
            "".join(f % tuple(np.atleast_1d(v[w[r]]).tolist()) for (f, v), w in zip(fields, wheres))
            for r in range(k)
        ]
        # row by row, so a failure names its first wrong row
        got = "".join(blocks).splitlines(keepends=True)
        assert len(got) == k
        for r, (line, row) in enumerate(zip(got, want)):
            assert line == row, r
        assert [b.count("\n") for b in blocks] == [min(BLOCK, k - s) for s in range(0, k, BLOCK)]


def ne_draw(n, seed):
    """(game, spaces, grid, eps) of an `ne` run on a random n-player game:
    a random grid shape of at most 20,000 profiles, and eps from none to
    every profile."""
    rng = np.random.default_rng(seed)
    game = ClassicalGame((("a", "b"),) * n, rng.uniform(0, 10, size=(2,) * n + (n,)))
    names = ("one", "alpha", "beta", "full")
    while True:
        spaces = [names[k] for k in rng.integers(0, 4, n)]
        t, a, b = int(rng.integers(2, 18)), int(rng.integers(1, 18)), int(rng.integers(1, 6))
        grid = ParamGrid(t, a, b)
        if math.prod(grid.size(parse_space(s)) for s in spaces) <= 20000:
            break
    eps = float(rng.choice([0.0, 0.1, 1.0, 3.0, 100.0]))
    return game, ",".join(spaces), f"{t},{a},{b}", eps


class TestPreflightMemoryCheck:
    @pytest.fixture(autouse=True)
    def fresh_cgroup_limit(self):
        # the limit is read once per process; each test reads its own
        # files, and leaves no limit of theirs behind
        cli._cgroup_memory_limit.cache_clear()
        yield
        cli._cgroup_memory_limit.cache_clear()

    def test_second_preflight_opens_no_file(self, monkeypatch):
        first = cli._memory_left(0, "nothing")

        def refuse(*args, **kwargs):
            raise AssertionError("a file was opened")

        monkeypatch.setattr(cli, "open", refuse, raising=False)
        assert cli._memory_left(0, "nothing") == first

    @pytest.mark.parametrize(
        "argv,what,games",
        [
            (
                ["ne", str(GAMES / "pd.game"), "--spaces", "full", "--grid", "1000,1000,1000"],
                "the game, the strategies, their features and labels, one block of payoff "
                "tables and mask, and the best replies",
                "the game",
            ),
            (
                ["surface", str(GAMES / "pd.game"), "--grid", "1000000000000,1"],
                "the game and the theta and alpha axes",
                "the game",
            ),
            (
                ["lift-verify", str(GAMES / "pd.game"), str(GAMES / "pd_swapped.game")]
                + ["--samples", "100000000000"],
                "the two games and 100,000,000,000 samples of angles and payoffs",
                "the two games",
            ),
            (
                ["identities", "--samples", "100000000000"],
                "100,000,000,000 draws of the identity checks",
                None,
            ),
        ],
    )
    def test_huge_grid_exits_2_before_allocating(self, argv, what, games, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("grid arrays built or samples drawn")

        monkeypatch.setattr(ParamGrid, "angles", refuse)
        monkeypatch.setattr(cli, "grid_payoff_tables", refuse)
        monkeypatch.setattr(cli, "verify_lifts", refuse)
        monkeypatch.setattr(cli, "operator_identity_suite", refuse)
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert peak < 1 << 20
        err = capsys.readouterr().err
        assert f"GiB for {what}" in err and "physical memory" in err
        # a command that builds EWL games counts them first
        assert games is None or f"GiB for {games}" in err

    @staticmethod
    def fixed(games=0) -> int:
        """The preflight's fixed part with `games` bytes of games and work
        blocks of BLOCK_BYTES."""
        return cli.FIXED_BYTES + games + cli.WORK_BLOCKS * BLOCK_BYTES

    # `ne` on two one-parameter grids of 2 strategies: the game, 4
    # strategies and the 2 + 2 entries of the players' best replies. The
    # search finds one row
    NE_ARGV = ["ne", str(GAMES / "pd.game"), "--spaces", "one", "--grid", "2,1,1"]

    def ne_need(self) -> int:
        return self.fixed(game_bytes(2)) + 4 * cli.STRATEGY_BYTES + 4 * cli.REPLY_BYTES

    @pytest.mark.parametrize("command", ["ne", "surface"])
    def test_budget_is_half_of_physical_memory(self, command, capsys, monkeypatch):
        # the search's one row (two payoffs and an improvement) fits, and a
        # budget a byte short of it does not; `surface` counts the points
        # of its axes, 2 + 2
        if command == "ne":
            argv, need = self.NE_ARGV, self.ne_need() + 3 * cli.ROW_BYTES
        else:
            argv = ["surface", str(GAMES / "pd_swapped.game"), "--grid", "2,2"]
            need = self.fixed(game_bytes(2)) + 4 * cli.AXIS_BYTES
        for phys, code in [(2 * need, 0), (2 * need - 1, 2)]:
            pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": phys}
            monkeypatch.setattr(cli.os, "sysconf", pages.__getitem__)
            assert main(argv) == code
        capsys.readouterr()

    def test_rows_count_against_what_the_search_leaves(self, capsys, monkeypatch):
        # a budget of exactly the preflight's count leaves no row
        need = self.ne_need()
        refusals = [
            (2 * need, "more than 0 equilibrium rows"),
            (2 * need - 1, "GiB for the game, the strategies"),
        ]
        for phys_bytes, text in refusals:
            pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": phys_bytes}
            monkeypatch.setattr(cli.os, "sysconf", pages.__getitem__)
            assert main(self.NE_ARGV) == 2
            out, err = capsys.readouterr()
            assert out == "" and text in err

    def test_budget_is_half_of_a_lower_cgroup_limit(self, capsys, monkeypatch):
        pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": 1 << 40}
        monkeypatch.setattr(cli.os, "sysconf", pages.__getitem__)
        need = self.ne_need() + 3 * cli.ROW_BYTES
        for limit, code in [(2 * need, 0), (2 * need - 1, 2), (None, 0)]:
            monkeypatch.setattr(cli, "_cgroup_memory_limit", lambda: limit)
            assert main(self.NE_ARGV) == code
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv,samples,per_sample,games",
        [
            # two players' drawn angles a sample, and two 2-player games
            (
                ["lift-verify", str(GAMES / "pd.game"), str(GAMES / "pd_swapped.game")],
                100,
                2 * cli.SAMPLE_BYTES,
                2 * game_bytes(2),
            ),
            (["identities"], 50, cli.DRAW_BYTES, 0),
        ],
        ids=["lift-verify", "identities"],
    )
    def test_sample_budget_is_half_of_a_lower_cgroup_limit(
        self, argv, samples, per_sample, games, capsys, monkeypatch
    ):
        pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": 1 << 40}
        monkeypatch.setattr(cli.os, "sysconf", pages.__getitem__)
        need = self.fixed(games) + samples * per_sample
        for limit, code in [(2 * need, 0), (2 * need - 1, 2)]:
            monkeypatch.setattr(cli, "_cgroup_memory_limit", lambda: limit)
            assert main(argv + ["--samples", str(samples)]) == code
        capsys.readouterr()

    @staticmethod
    def constant_game(path, n, m):
        """A game file of n players of m strategies whose payoffs are all
        0, so every mapping is a strong isomorphism."""
        labels = [[f"s{k}" for k in range(m)]] * n
        save_game_file(GameFile(ClassicalGame(labels, np.zeros((m,) * n + (n,)))), path)
        return str(path)

    @pytest.mark.parametrize("n,m", [(2, 3), (4, 2)])
    def test_candidate_mappings_count_against_what_the_budget_leaves(
        self, n, m, tmp_path, capsys, monkeypatch
    ):
        # a game whose every mapping is an isomorphism: as many candidate
        # mappings as the budget leaves pass, and one more is refused
        # before any is checked. The preflight counts the two games and
        # their signatures: four payoff tensors, each less than a work block
        path = self.constant_game(tmp_path / "c.game", n, m)
        argv = ["iso", path, path]
        candidates = math.factorial(n) * math.factorial(m) ** n
        need = self.fixed(4 * m**n * n * 8)
        for mappings, code in [(candidates, 0), (candidates - 1, 2)]:
            pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": 2 * (need + mappings * cli.MAPPING_BYTES)}
            monkeypatch.setattr(cli.os, "sysconf", pages.__getitem__)
            assert main(argv) == code
        out, err = capsys.readouterr()
        assert out.count("\niso ") == candidates
        assert err == (
            f"error: more than {candidates - 1:,} candidate mappings: {candidates:,} to check\n"
        )

    @pytest.mark.parametrize("command", ["iso", "lift-verify"])
    def test_constant_seven_by_seven_game_exits_2_before_the_search(
        self, command, tmp_path, capsys, monkeypatch
    ):
        # 2 * 5,040^2 candidate mappings, about 19 GB of mappings found;
        # `lift-verify` refuses the game as not binary before its search
        def refuse(*args, **kwargs):
            raise AssertionError("a candidate mapping was checked")

        monkeypatch.setattr(games, "_pull_back", refuse)
        pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": 1 << 30}
        monkeypatch.setattr(cli.os, "sysconf", pages.__getitem__)
        path = self.constant_game(tmp_path / "c.game", 2, 7)
        assert main([command, path, path]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        if command == "iso":
            assert "candidate mappings: 50,803,200 to check" in err
        else:
            assert err == "error: EWL quantization needs a binary game\n"

    @pytest.mark.parametrize("n,m", [(2, 5), (3, 3), (4, 2)])
    def test_iso_peak_stays_within_the_estimate(self, n, m, tmp_path, monkeypatch):
        # every mapping of a constant game is found and held, with its
        # report line: what the preflight counts, and the bytes budgeted
        # per candidate mapping
        path = self.constant_game(tmp_path / "c.game", n, m)
        calls = {}
        left = cli._memory_left

        def memory_left(need, what):
            calls["need"] = need
            return left(need, what)

        monkeypatch.setattr(cli, "_memory_left", memory_left)
        cli.build_parser()
        with contextlib.redirect_stdout(Writes()):
            tracemalloc.start()
            try:
                assert main(["iso", path, path]) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        mappings = math.factorial(n) * math.factorial(m) ** n
        assert peak <= calls["need"] + mappings * cli.MAPPING_BYTES

    @pytest.mark.parametrize("grid", [(101, 201), (1, 20001)])
    def test_surface_peak_stays_within_one_block(self, grid, tmp_path, capsys):
        # a 1 x a grid has a distinct label per alpha as well as per payoff;
        # a whole 101 x 201 table held about 6 MiB
        t_steps, a_steps = grid
        argv = ["surface", str(GAMES / "pd_swapped.game"), "--opponent", "0.3,1.1"]
        argv += ["--grid", f"{t_steps},{a_steps}", "--csv", str(tmp_path / "surface.csv")]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @staticmethod
    def ne_peak_and_estimate(game, spaces, grid, eps, csv, found=None):
        """tracemalloc peak of `ne` on the ClassicalGame `game`, and its
        estimate: what the preflight asks `_memory_left` for, plus the
        bytes `cmd_ne` budgets per row (what is left over its `max_rows`)
        for each row found. `found`, when given, makes the search's result
        in place of the search."""
        n = game.n_players
        calls = {}
        left = cli._memory_left

        def memory_left(need, what):
            calls["need"], calls["left"] = need, left(need, what)
            return calls["left"]

        def search(*args, **kwargs):
            calls["max_rows"] = kwargs["max_rows"]
            calls["found"] = grid_equilibria(*args, **kwargs) if found is None else found()
            return calls["found"]

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "rand.game"
            save_game_file(GameFile(game, (StrategySpace.FULL_SU2,) * n), path)
            argv = ["ne", str(path), "--spaces", spaces, "--grid", grid, "--eps", repr(eps)]
            argv += ["--csv", str(Path(tmp) / "ne.csv")] if csv else []
            # the parser is built once per process, before any preflight
            # runs, so no estimate can count it
            cli.build_parser()
            with mock.patch.object(cli, "_memory_left", memory_left):
                with mock.patch.object(cli, "grid_equilibria", search):
                    with contextlib.redirect_stdout(io.StringIO()):
                        tracemalloc.start()
                        try:
                            assert main(argv) in (0, 1)
                            peak = tracemalloc.get_traced_memory()[1]
                        finally:
                            tracemalloc.stop()
        rows = len(calls.pop("found").eps)
        return peak, calls["need"] + rows * calls["left"] / calls["max_rows"]

    @given(n=st.integers(2, 4), csv=st.booleans(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None, phases=NO_SHRINK)
    def test_ne_peak_stays_within_the_estimate(self, n, csv, seed):
        peak, need = self.ne_peak_and_estimate(*ne_draw(n, seed), csv)
        assert peak <= need

    @pytest.mark.parametrize("seed", [0, 3, 5])
    def test_ne_peak_stays_within_the_estimate_in_a_fresh_process(self, seed):
        # a process's first `ne` also makes NumPy's and the interpreter's
        # first-call allocations, which the fixed part counts. A guard that
        # the fixed part stays: these draws peaked 2.7-8.7 KB above a count
        # of the game and the search alone, far below its 64 KiB
        code = (
            "import test_cli as t\n"
            f"game, spaces, grid, eps = t.ne_draw(2, {seed})\n"
            "print(*t.TestPreflightMemoryCheck.ne_peak_and_estimate(game, spaces, grid, eps, True))"
        )
        path = [str(Path(__file__).resolve().parent), str(Path(cli.__file__).resolve().parents[1])]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        peak, need = map(float, proc.stdout.split())
        assert peak <= need

    @pytest.mark.parametrize(
        "spaces,grid",
        [("full,full", "5,9,9"), ("full,full,full", "3,5,5"), ("full,alpha", "9,17,17")],
    )
    def test_ne_peak_of_a_blocked_search_stays_within_the_estimate(self, spaces, grid):
        # player 0's strategies take more than one block of tables; on
        # full,alpha player 0 has the most strategies
        n = spaces.count(",") + 1
        dims = [ParamGrid(*map(int, grid.split(","))).size(parse_space(s)) for s in spaces.split(",")]
        assert _block_strategies(dims) < dims[0]
        game = ClassicalGame((("a", "b"),) * n, np.random.default_rng(n).uniform(0, 10, (2,) * n + (n,)))
        peak, need = self.ne_peak_and_estimate(game, spaces, grid, 1.0, csv=True)
        assert peak <= need

    def test_ne_peak_of_a_one_block_half_scan_stays_within_the_estimate(self):
        # one block of 192 x 192 profiles: the whole grid's tables, player
        # 0's table on the half of its strategies scanned, and the other
        # player's tables on their rows that hold a candidate. 1.11 MB
        # against an estimate of 4.46 MB
        dims = [ParamGrid(3, 9, 9).size(StrategySpace.FULL_SU2)] * 2
        assert _block_strategies(dims) == dims[0]
        game = ClassicalGame((("a", "b"),) * 2, np.random.default_rng(2).uniform(0, 10, (2, 2, 2)))
        peak, need = self.ne_peak_and_estimate(game, "full,full", "3,9,9", 1.0, csv=True)
        assert peak <= need

    def test_ne_peak_grows_within_the_row_count(self):
        # every profile is a row, and no two payoffs are equal: from 625 to
        # 6,561 rows the peak grows by no more than the estimate does
        rng = np.random.default_rng(0)
        game = ClassicalGame((("a", "b"),) * 4, rng.uniform(0, 10, size=(2,) * 4 + (4,)))
        one = (StrategySpace.ONE_PARAM,) * 4
        found = grid_equilibria(EwlGame(game, one), ParamGrid(9, 1, 1), 100.0)
        assert len(found.eps) == 9**4
        assert len(np.unique(found.payoffs)) == found.payoffs.size
        (small, small_need), (large, large_need) = (
            self.ne_peak_and_estimate(game, "one", f"{t},1,1", 100.0, csv=True) for t in (5, 9)
        )
        assert small <= small_need and large <= large_need
        assert large - small <= large_need - small_need

    def test_ne_peak_with_the_longest_labels(self):
        # 2,000 and 20,000 rows whose payoffs and improvements are all
        # distinct and print at full length: 17 characters in `%.10g`, 22
        # in `%.15g`; the peak grows by no more than the count of a row
        n = 4
        rng = np.random.default_rng(1)
        game = ClassicalGame((("a", "b"),) * n, rng.uniform(0, 10, size=(2,) * n + (n,)))
        angles = ParamGrid(9, 1, 1).angles(StrategySpace.ONE_PARAM)
        peaks = []
        for k in (2000, 20000):

            def found():
                values = -(1 + rng.random((k, n + 1))) * 1e-100
                index = rng.integers(0, len(angles), (k, n))
                return GridEquilibria((angles,) * n, index, values[:, n].copy(), values[:, :n].copy())

            peak, need = self.ne_peak_and_estimate(game, "one", "9,1,1", 100.0, True, found)
            assert peak <= need
            peaks.append(peak)
        assert peaks[1] - peaks[0] <= cli.ROW_BYTES * (n + 1) * 18000

    @pytest.mark.parametrize(
        "cgroup,files,limit",
        [
            # cgroup namespace: the process sits at the root of its view
            ("0::/\n", {"": "4294967296\n"}, 4294967296),
            # systemd slice without a namespace: the root has no memory.max
            ("4:memory:/x\n0::/a.slice/b.scope\n", {"a.slice/b.scope": "1000\n"}, 1000),
            # a limit set on an ancestor binds the child below it
            ("0::/a/b\n", {"a/b": "max\n", "a": "2000\n", "": "3000\n"}, 2000),
            ("0::/a/b\n", {"a/b": "5000\n", "a": "max\n"}, 5000),
            ("0::/a\n", {"a": "max\n", "": "max\n"}, None),
            ("0::/a\n", {}, None),
            # cgroup v1 only: no unified hierarchy line
            ("4:memory:/a\n", {"a": "1000\n"}, None),
        ],
        ids=["namespace", "slice", "ancestor", "leaf", "all-max", "no-files", "v1-only"],
    )
    def test_cgroup_limit_file(self, cgroup, files, limit, tmp_path, monkeypatch):
        (tmp_path / "cgroup").write_text(cgroup)
        for rel, text in files.items():
            (tmp_path / "fs" / rel).mkdir(parents=True, exist_ok=True)
            (tmp_path / "fs" / rel / "memory.max").write_text(text)
        monkeypatch.setattr(cli, "PROC_SELF_CGROUP", str(tmp_path / "cgroup"))
        monkeypatch.setattr(cli, "CGROUP_ROOT", str(tmp_path / "fs"))
        assert cli._cgroup_memory_limit() == limit

    @pytest.mark.parametrize(
        "cgroup,files,limit",
        [
            # hybrid host: v1 memory controller, v2 root without memory.max
            ("4:memory:/p/x\n0::/\n", {"p/x": "1000\n"}, 1000),
            # v1 writes "no limit" as a page-rounded 2^63 - 1
            ("4:memory:/p/x\n0::/\n", {"p/x": "9223372036854771712\n"}, None),
            ("4:memory:/a/b\n", {"a/b": "9223372036854771712\n", "a": "2000\n"}, 2000),
            ("3:cpu,memory:/a\n", {"a": "3000\n"}, 3000),
            ("4:cpuset:/a\n", {"a": "3000\n"}, None),
        ],
        ids=["hybrid", "v1-unlimited", "v1-ancestor", "v1-joint", "v1-other-controller"],
    )
    def test_cgroup_v1_limit_file(self, cgroup, files, limit, tmp_path, monkeypatch):
        (tmp_path / "cgroup").write_text(cgroup)
        for rel, text in files.items():
            (tmp_path / "fs" / "memory" / rel).mkdir(parents=True, exist_ok=True)
            (tmp_path / "fs" / "memory" / rel / "memory.limit_in_bytes").write_text(text)
        monkeypatch.setattr(cli, "PROC_SELF_CGROUP", str(tmp_path / "cgroup"))
        monkeypatch.setattr(cli, "CGROUP_ROOT", str(tmp_path / "fs"))
        assert cli._cgroup_memory_limit() == limit

    def test_lower_of_v1_and_v2_limits(self, tmp_path, monkeypatch):
        (tmp_path / "cgroup").write_text("4:memory:/a\n0::/b\n")
        (tmp_path / "fs" / "memory" / "a").mkdir(parents=True)
        (tmp_path / "fs" / "memory" / "a" / "memory.limit_in_bytes").write_text("5000\n")
        (tmp_path / "fs" / "b").mkdir(parents=True)
        (tmp_path / "fs" / "b" / "memory.max").write_text("4000\n")
        monkeypatch.setattr(cli, "PROC_SELF_CGROUP", str(tmp_path / "cgroup"))
        monkeypatch.setattr(cli, "CGROUP_ROOT", str(tmp_path / "fs"))
        assert cli._cgroup_memory_limit() == 4000

    def test_cgroup_limit_without_a_proc_file(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "PROC_SELF_CGROUP", str(tmp_path / "missing"))
        assert cli._cgroup_memory_limit() is None


class TestIdentitiesCommand:
    def test_passes(self, capsys):
        code = main(["identities", "--samples", "50", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "all identities hold" in out
        assert out.count("pass") == 6

    @pytest.mark.parametrize("samples", ["0", "-1"])
    def test_sample_count_below_one_exit_2(self, samples, capsys):
        code = main(["identities", "--samples", samples])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: need at least one draw, got {samples}\n"


class TestParser:
    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    @pytest.mark.parametrize("env", [None, "123"])
    def test_no_argument_values_carry_over(self, env, capsys, monkeypatch):
        if env is None:
            monkeypatch.delenv("QGAME_SEED", raising=False)
        else:
            monkeypatch.setenv("QGAME_SEED", env)
        assert main(["identities", "--samples", "5", "--seed", "3"]) == 0
        assert "# seed: 3\n" in capsys.readouterr().out
        assert main(["identities"]) == 0
        out = capsys.readouterr().out
        assert f"# seed: {env or 0}\n" in out
        assert "# command: identities" in out

    @pytest.mark.parametrize("source", ["flag", "env"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["lift-verify", str(GAMES / "pd.game"), str(GAMES / "pd_swapped.game")],
            ["identities", "--samples", "3"],
        ],
    )
    def test_negative_seed_exit_2(self, argv, source, capsys, monkeypatch):
        if source == "flag":
            argv = [*argv, "--seed", "-1"]
        else:
            monkeypatch.setenv("QGAME_SEED", "-1")
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == "error: seed must be a non-negative integer, got -1\n"

    @pytest.mark.parametrize("value", ["abc", "1.5", ""])
    @pytest.mark.parametrize(
        "argv",
        [
            ["lift-verify", str(GAMES / "pd.game"), str(GAMES / "pd_swapped.game")],
            ["identities", "--samples", "3"],
        ],
    )
    def test_non_integer_env_seed_exit_2(self, argv, value, capsys, monkeypatch):
        monkeypatch.setenv("QGAME_SEED", value)
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == f"error: QGAME_SEED must be a non-negative integer, got {value!r}\n"

    def test_handler_is_looked_up_per_call(self, capsys, monkeypatch):
        cli.build_parser()
        seen = []
        monkeypatch.setattr(cli, "cmd_iso", lambda args: seen.append(args.game_a) or 7)
        assert main(["iso", "a.game", "b.game"]) == 7
        assert seen == ["a.game"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["ne", "pd.game", "--grid", "17,,33,1"],
            ["ne", "pd.game", "--grid", "17,33,1,"],
            ["ne", "pd.game", "--spaces", "alpha,,one"],
            ["surface", "pd_swapped.game", "--opponent", "1,,2"],
            ["surface", "pd_swapped.game", "--grid", " ,5,9"],
        ],
    )
    def test_empty_list_field_exit_2(self, argv, capsys):
        code = main([argv[0], str(GAMES / argv[1]), *argv[2:]])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == f"error: empty field in {argv[-1]!r}\n"

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["ne", "pd.game", "--grid", "17.5,33,1"], "grid must be t,a,b step counts"),
            (["ne", "pd.game", "--grid", "a,b,c"], "grid must be t,a,b step counts"),
            (
                ["surface", "pd_swapped.game", "--grid", "2.5,3"],
                "surface grid must be theta_steps,alpha_steps",
            ),
            (
                ["surface", "pd_swapped.game", "--opponent", "x,1"],
                "opponent parameters must be theta,alpha[,beta]",
            ),
        ],
    )
    def test_non_number_list_field_names_its_flag(self, argv, message, capsys):
        code = main([argv[0], str(GAMES / argv[1]), *argv[2:]])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == f"error: {message}, got {argv[-1]!r}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["ne", "pd.game", "--spaces", " alpha , alpha", "--grid", " 5, 9 ,1 "],
            ["ne", "pd.game", "--spaces", " alpha ", "--grid", "5,9,1"],
            ["surface", "pd_swapped.game", "--opponent", " 0.5 , 1 ", "--grid", " 3 , 5"],
        ],
    )
    def test_spaces_around_fields_accepted(self, argv, capsys):
        assert main([argv[0], str(GAMES / argv[1]), *argv[2:]]) in (0, 1)
        assert capsys.readouterr().err == ""


class TestConsoleEntry:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qgame", "iso", str(GAMES / "pd.game"), str(GAMES / "pd.game")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "verdict: isomorphic" in proc.stdout

    @pytest.mark.parametrize(
        "game,argv,lines",
        [
            # about 870 KB of rows: the reader closes the pipe mid-write
            ("antidiag.game", ["--spaces", "alpha", "--grid", "17,33,1", "--eps", "0.5"], 1),
            # a few lines, still buffered when the pipe is found closed
            ("pd.game", [], 0),
        ],
        ids=["mid-write", "buffered"],
    )
    def test_closed_stdout_exits_3_without_a_traceback(self, game, argv, lines):
        argv = [sys.executable, "-m", "qgame", "ne", str(GAMES / game), *argv]
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            for _ in range(lines):
                assert proc.stdout.readline().startswith(b"# command: ne ")
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=120)
        assert code == 3
        assert err == b""

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
    def test_full_device_exits_3_with_one_error_line(self):
        argv = [sys.executable, "-m", "qgame", "ne", str(GAMES / "pd.game"), "--eps", "1"]
        with open("/dev/full", "w") as full:
            proc = subprocess.run(argv, stdout=full, stderr=subprocess.PIPE, text=True)
        assert proc.returncode == 3
        assert proc.stderr == "error: cannot write output: [Errno 28] No space left on device\n"

    def test_broken_pipe_without_a_file_descriptor_exits_3(self, monkeypatch):
        def broken(args):
            raise BrokenPipeError

        monkeypatch.setattr(cli, "cmd_iso", broken)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["iso", "a.game", "b.game"]) == 3
