"""The test suite's enumeration oracle and lemma code, kept out of the package.

No ``qtab`` command runs anything here, and nothing under ``src/`` imports
it; the tests import it as ``oracle`` (pytest puts ``tests/`` on the path).

* :mod:`oracle.permutation` -- permutation restrictions and involution
  tests, pattern containment by enumeration, and the one-instance
  ``permcont1``/``permcont2`` checks;
* :mod:`oracle.tableau` -- tableau restrictions and transposes, tableau
  containment by enumeration, involutions as single tableaux, and the
  one-cut ``permtotab`` checks;
* :mod:`oracle.jsets` -- the brute-force list of j-sets, the j-set
  membership criterion and the extension lemmas;
* :mod:`oracle.blocks` -- binary words, 0-1 matrices, the block
  decomposition phi and shuffles;
* :mod:`oracle.bounds` -- the logarithmic bound check.
"""
