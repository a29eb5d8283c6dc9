"""Exact partizan game values for complementary subtraction games.

The centerpiece is GoldenNugget, the game where Left removes members of
Wythoff's A sequence from a heap and Right removes members of B.  The
package provides the exact game-value engine (canonical and reduced
canonical forms), the Fibonacci/Beatty number theory the analysis runs on,
a linear-time heap classifier with a brute-force oracle to check it, and a
multi-heap position solver.
"""

__version__ = "0.1.0"
