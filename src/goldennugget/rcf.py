"""Reduced canonical form: comparison and reduction modulo infinitesimals.

A game's reduced canonical form is the unique simplest game infinitesimally
close to it: a canonical-form number when the stops coincide, and otherwise
a hot game with no Inf-dominated or Inf-reversible options.
"""

from __future__ import annotations

from .games import GameId, Universe


def geq_inf(u: Universe, g: GameId, h: GameId) -> bool:
    """g - h >= -x for every positive number x, via right stops."""
    if g == h:
        return True
    cache = u.cache("geq_inf")
    key = (g, h)
    done = cache.get(key)
    if done is None:
        diff = u.add(g, u.negate(h))
        done = u.stops(diff)[1].sign() >= 0
        cache[key] = done
    return done


def eq_inf(u: Universe, g: GameId, h: GameId) -> bool:
    """g and h are infinitesimally close."""
    return geq_inf(u, g, h) and geq_inf(u, h, g)


def reduced_canonical_form(u: Universe, g: GameId) -> GameId:
    """The unique reduced canonical form infinitesimally close to g."""
    cache = u.cache("rcf")
    c = u.canonical_form(g)
    done = cache.get(c)
    if done is not None:
        return done
    left_stop, right_stop = u.stops(c)
    if left_stop == right_stop:
        # number plus infinitesimal: the reduced form is the number itself
        result = u.from_number(left_stop)
    else:
        ls = sorted({reduced_canonical_form(u, x) for x in u.left_options(c)})
        rs = sorted({reduced_canonical_form(u, x) for x in u.right_options(c)})
        while True:
            current = u.make_game(ls, rs)
            known = cache.get(current)
            if known is not None:
                result = known
                break
            # Inf-dominated options; after reduction, inf-equal options share an id
            ls = [a for a in ls if not any(b != a and geq_inf(u, b, a) for b in ls)]
            rs = [b for b in rs if not any(c2 != b and geq_inf(u, b, c2) for c2 in rs)]
            replaced = _bypass(u, current, ls, rs, 0) or _bypass(u, current, ls, rs, 1)
            if not replaced and u.make_game(ls, rs) == current:
                result = current
                cache[result] = result
                break
    cache[c] = result
    cache[result] = result
    return result


def _bypass(u: Universe, game: GameId, ls: list[GameId], rs: list[GameId], side: int) -> bool:
    # an option on `side` (0 Left, 1 Right) is Inf-reversible through one of
    # its opposite-side options `back` with game >=I back (Left) or
    # back >=I game (Right); the bypass is only valid while the replacement
    # game is not a number
    sides = [ls, rs]
    options = sides[side]
    for pos, a in enumerate(options):
        for back in u.options(a)[1 - side]:
            if not (geq_inf(u, game, back) if side == 0 else geq_inf(u, back, game)):
                continue
            sides[side] = sorted(set(options[:pos] + options[pos + 1:]) | set(u.options(back)[side]))
            if u.as_number(u.make_game(*sides)) is None:
                options[:] = sides[side]
                return True
    return False
