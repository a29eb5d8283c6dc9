"""Game text read back into games, for the tests.

The package only writes game text (``games.game_text``); the tests write
their games as text in the paper's notation, ``||``/``|||`` slash-rank
shorthand included, and read it here, through the JSON form.
"""

import re

from goldennugget.dyadic import Dyadic

# numbers, pipe runs, and any other non-space character on its own
_TOKEN_RE = re.compile(r"-?\d+(?:/\d+)?|\|+|\S")


def read_obj(text: str):
    """The JSON form of game text, read in one pass over its tokens; malformed
    text raises ValueError before any game is built."""
    # per open brace, and for the text itself: its pieces between pipe runs
    # (each a list of games) and the lengths of those runs
    frames = [([[]], [])]
    ended = False  # the last token closed a game
    for tok in _TOKEN_RE.findall(text):
        number = tok[-1].isdigit()
        if ended and (number or tok == "{"):
            raise ValueError(f"two games with no separator in {text!r}")
        ended = number or tok == "}"
        if tok == "{":
            frames.append(([[]], []))
        elif number:
            Dyadic.from_str(tok)  # rejects a denominator that is not a power of two
            frames[-1][0][-1].append(tok)
        elif len(frames) == 1 or (tok not in ",}" and tok[0] != "|"):
            raise ValueError(f"unexpected {tok!r} in {text!r}")
        elif tok == "}":
            game = _body(*frames.pop())
            frames[-1][0][-1].append(game)
        elif tok[0] == "|":
            frames[-1][0].append([])
            frames[-1][1].append(len(tok))
    if len(frames) > 1:
        raise ValueError(f"unclosed brace in {text!r}")
    if len(frames[0][0][0]) != 1:
        raise ValueError(f"expected one game in {text!r}")
    return frames[0][0][0][0]


def read_game(u, text: str):
    return u.from_json_obj(read_obj(text))


def _body(pieces: list, runs: list):
    """Options split at the first of the longest pipe runs; a side that still
    holds a pipe is one undelimited subgame, its commas its own."""
    if not runs:
        raise ValueError("no option separator in a braced game")
    at = runs.index(max(runs))
    return {"L": _side(pieces[:at + 1], runs[:at]), "R": _side(pieces[at + 1:], runs[at + 1:])}


def _side(pieces: list, runs: list) -> list:
    return [_body(pieces, runs)] if runs else pieces[0]
