"""Reduced canonical form: comparison and reduction modulo infinitesimals.

A game's reduced canonical form is the unique simplest game infinitesimally
close to it: a canonical-form number when the stops coincide, and otherwise
a hot game with no Inf-dominated or Inf-reversible options.  The hot case
reduces the children, then runs the canonical-form reduction
(:meth:`Universe.reduce`) under ``>=_Inf`` in place of ``>=``.
"""

from __future__ import annotations

from functools import partial

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
        left, right = u.options(c)
        ls = {reduced_canonical_form(u, x) for x in left}
        rs = {reduced_canonical_form(u, x) for x in right}
        result = u.reduce(ls, rs, "rcf", partial(geq_inf, u))
    cache[c] = result
    return result
