"""The one-pass game file parser against the line-by-line oracle.

Random valid game files must parse to the same `GameFile`, with the
same payoff bits; every single-line mutation of one must raise the same
`GameFileError`: the same message and the same line number.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import parse_game_file_oracle
from qgame import GameFileError, load_game_file, parse_game_file

SPACE_NAMES = ("full", "su2", "alpha", "two-param-alpha", "beta", "one", "One-Param")
LABEL = st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,3}", fullmatch=True)
VALUE = st.one_of(
    st.integers(-20, 20).map(str),
    st.floats(-1e6, 1e6, allow_nan=False).map(repr),
    st.floats(-100, 100, allow_nan=False).map(lambda v: f"{v:g}"),
)

PAIR = "players: 2\nstrategies 1: a b\nstrategies 2: c d\n"
NON_NUMBERS = ["abc", "1.2.3", "0x10", "--1"]
NON_FINITE = ["nan", "inf", "-inf", "NaN", "1e999"]


def parsed(parse, text):
    """(labels, payoff shape, payoff bits, spaces) of `parse(text)`, or
    the (message, line) of the GameFileError it raises."""
    try:
        gf = parse(text)
    except GameFileError as exc:
        return str(exc), exc.line
    return gf.game.labels, gf.game.payoffs.shape, gf.game.payoffs.tobytes(), gf.spaces


@st.composite
def game_lines(draw):
    """A valid game file as a list of lines: the players line, the
    strategies lines in any order, then optional space lines and the
    payoff lines in any order, with comments, blank lines and spacing
    in between."""
    n = draw(st.integers(1, 4))
    labels = [draw(st.lists(LABEL, min_size=2, max_size=3, unique=True)) for _ in range(n)]
    head = [f"players: {n}"]
    strategies = [f"strategies {i + 1}: {' '.join(ls)}" for i, ls in enumerate(labels)]
    head += draw(st.permutations(strategies))
    body = [
        f"space {i + 1}: {draw(st.sampled_from(SPACE_NAMES))}"
        for i in range(n)
        if draw(st.booleans())
    ]
    sep = draw(st.sampled_from([",", ", ", " , "]))
    for profile in _profiles(labels):
        values = " ".join(draw(st.lists(VALUE, min_size=n, max_size=n)))
        body.append(f"payoff{draw(st.sampled_from(['', ' ']))}({sep.join(profile)}): {values}")
    lines = head + draw(st.permutations(body))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(lines)))
        lines.insert(at, draw(st.sampled_from(["", "   ", "# a comment", "  # indented comment"])))
    if draw(st.booleans()):
        k = draw(st.integers(0, len(lines) - 1))
        lines[k] += "  # trailing comment"
    return n, labels, lines


def _profiles(labels):
    profiles = [[]]
    for ls in labels:
        profiles = [p + [lab] for p in profiles for lab in ls]
    return profiles


def _kind(line):
    return line.split("#", 1)[0].strip().split(" ", 1)[0].split("(", 1)[0].rstrip(":")


def _payoff_parts(line):
    """(profile labels, values, comment) of a payoff line."""
    line, _, comment = line.partition("#")
    profile, values = line.split(":", 1)
    labels = profile[profile.index("(") + 1 : profile.index(")")].split(",")
    return [lab.strip() for lab in labels], values.split(), ("#" + comment if comment else "")


def _payoff_line(labels, values, comment=""):
    return f"payoff ({','.join(labels)}): {' '.join(values)}{comment}"


MUTATIONS = [
    "unknown label",
    "duplicate profile",
    "label count",
    "value count",
    "non-number",
    "non-finite",
    "unrecognized",
    "payoff before strategies",
    "duplicate players",
    "duplicate strategies",
    "bad player index",
    "missing players",
    "incomplete table",
    "zero players",
    "repeated label",
    "unknown space",
    "duplicate space",
    "label character",
]


def mutate(data, kind, n, labels, lines):
    """`lines` with one line replaced, inserted or deleted, the way
    `kind` names."""
    lines = list(lines)
    payoffs = [k for k, line in enumerate(lines) if _kind(line) == "payoff"]
    strategies = [k for k, line in enumerate(lines) if _kind(line) == "strategies"]
    players = next(k for k, line in enumerate(lines) if _kind(line) == "players")
    k = data.draw(st.sampled_from(payoffs))
    profile, values, comment = _payoff_parts(lines[k])
    if kind == "unknown label":
        i = data.draw(st.integers(0, n - 1))
        profile[i] = "zz_" + profile[i]
        lines[k] = _payoff_line(profile, values, comment)
    elif kind == "duplicate profile":
        other = data.draw(st.sampled_from([p for p in payoffs if p != k]))
        lines[k] = _payoff_line(_payoff_parts(lines[other])[0], values, comment)
    elif kind == "label count":
        profile = profile[:-1] if data.draw(st.booleans()) else profile + [labels[0][0]]
        lines[k] = _payoff_line(profile, values, comment)
    elif kind == "value count":
        # any number of values but n, some of them possibly bad as well
        pool = st.sampled_from(["1", "-2.5", *NON_NUMBERS[:2], *NON_FINITE[:2]])
        count = data.draw(st.sampled_from([c for c in range(n + 3) if c != n]))
        values = data.draw(st.lists(pool, min_size=count, max_size=count))
        lines[k] = _payoff_line(profile, values, comment)
    elif kind in ("non-number", "non-finite"):
        # one value of the kind, others possibly of the other kind
        bad = NON_NUMBERS if kind == "non-number" else NON_FINITE
        for i in data.draw(st.sets(st.integers(0, n - 1), max_size=n)):
            values[i] = data.draw(st.sampled_from(NON_NUMBERS + NON_FINITE))
        values[data.draw(st.integers(0, n - 1))] = data.draw(st.sampled_from(bad))
        lines[k] = _payoff_line(profile, values, comment)
    elif kind == "unrecognized":
        junk = data.draw(st.sampled_from(["nonsense", "payoff t,l: 1 2", "players: x", "space 1:"]))
        lines.insert(data.draw(st.integers(0, len(lines))), junk)
    elif kind == "payoff before strategies":
        lines.insert(data.draw(st.integers(players + 1, max(strategies))), lines[k])
    elif kind == "duplicate players":
        lines.insert(data.draw(st.integers(players + 1, len(lines))), f"players: {n}")
    elif kind == "duplicate strategies":
        s = data.draw(st.sampled_from(strategies))
        lines.insert(data.draw(st.integers(s + 1, len(lines))), lines[s])
    elif kind == "bad player index":
        idx = data.draw(st.sampled_from([0, n + 1, n + 7]))
        line = data.draw(st.sampled_from([f"strategies {idx}: p q", f"space {idx}: full"]))
        lines.insert(data.draw(st.integers(players + 1, len(lines))), line)
    elif kind == "missing players":
        del lines[players]
    elif kind == "incomplete table":
        del lines[k]
    elif kind == "zero players":
        lines[players] = "players: 0"
    elif kind == "repeated label":
        s = data.draw(st.sampled_from(strategies))
        i = int(lines[s].split(":", 1)[0].split()[1])
        lines[s] = f"strategies {i}: {labels[i - 1][0]} {labels[i - 1][0]}"
    elif kind == "duplicate space":
        space = f"space {data.draw(st.integers(1, n))}: {data.draw(st.sampled_from(SPACE_NAMES))}"
        at = data.draw(st.integers(players + 1, len(lines)))
        lines.insert(at, space)
        lines.insert(data.draw(st.integers(at + 1, len(lines))), space)
    elif kind == "label character":
        # a label no payoff line could name
        s = data.draw(st.sampled_from(strategies))
        i = int(lines[s].split(":", 1)[0].split()[1])
        first, *rest = labels[i - 1]
        bad = first[:1] + data.draw(st.sampled_from([",", ")"])) + first[1:]
        lines[s] = f"strategies {i}: {' '.join([bad, *rest])}"
    else:
        lines.insert(data.draw(st.integers(players + 1, len(lines))), "space 1: sideways")
    return lines


class TestParserAgainstOracle:
    @given(game=game_lines())
    @settings(max_examples=100, deadline=None)
    def test_valid_files_parse_alike(self, game):
        _, _, lines = game
        text = "\n".join(lines) + "\n"
        got = parsed(parse_game_file, text)
        assert isinstance(got[0], tuple)
        assert got == parsed(parse_game_file_oracle, text)

    @pytest.mark.parametrize("kind", MUTATIONS)
    @given(game=game_lines(), data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_mutated_files_fail_alike(self, kind, game, data):
        n, labels, lines = game
        text = "\n".join(mutate(data, kind, n, labels, lines)) + "\n"
        want = parsed(parse_game_file_oracle, text)
        assert isinstance(want[0], str)
        assert parsed(parse_game_file, text) == want

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "# only a comment\n",
            "players: 2\nstrategies 1: a b\n",
            "players: 1\nstrategies 1: a b\npayoff (a): 1\npayoff (b): inf\n",
            "players: 1\nstrategies 1: a b\npayoff (a): 1\npayoff (a): 2\n",
            "players: 2\nstrategies 2: a b\nstrategies 1: c d\n"
            "payoff (c,a): 1 2\npayoff (c,b): 3 4\npayoff (d,a): 5 6\n",
            # lines that fail two checks: the first in the check order wins
            PAIR + "payoff (a,c): nan\n",
            PAIR + "payoff (a,c): abc\n",
            PAIR + "payoff (a,c): abc inf\n",
            PAIR + "payoff (a,zz): abc\n",
            PAIR + "payoff (zz): 1 2\n",
            PAIR + "payoff (a,c): 1 2\npayoff (a,c): nan\n",
            "players: 1\nstrategies 1: a,b\n",
            "players: 1\nstrategies 1: a) b,c\n",
            "players: 1\nstrategies 1: a a)\n",
            "players: 1\nspace 1: one\nspace 1: sideways\n",
        ],
    )
    def test_edge_files_parse_alike(self, text):
        assert parsed(parse_game_file, text) == parsed(parse_game_file_oracle, text)

    def test_payoffs_fill_the_tensor_in_profile_order(self):
        text = (
            "players: 2\nstrategies 1: a b\nstrategies 2: x y z\n"
            "payoff (b,z): 6 -6\npayoff (a,x): 1 -1\npayoff (b,x): 4 -4\n"
            "payoff (a,z): 3 -3\npayoff (b,y): 5 -5\npayoff (a,y): 2 -2\n"
        )
        payoffs = parse_game_file(text).game.payoffs
        assert payoffs[..., 0].tolist() == [[1, 2, 3], [4, 5, 6]]
        assert (payoffs[..., 1] == -payoffs[..., 0]).all()


@pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"])
@pytest.mark.parametrize("newline", [b"\n", b"\r\n"])
def test_file_with_a_byte_order_mark_and_crlf_loads(bom, newline, tmp_path):
    # editors on Windows save UTF-8 with a byte-order mark and CRLF line ends
    source = Path(__file__).resolve().parent.parent / "games" / "pd.game"
    path = tmp_path / "pd.game"
    path.write_bytes(bom + source.read_bytes().replace(b"\n", newline))
    assert load_game_file(path) == load_game_file(source)
