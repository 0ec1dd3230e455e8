"""Executable specifications kept outside the installed package.

Each module holds the plain scalar implementation an optimized routine in
``repro`` replaced; the equivalence tests assert that the optimized routine
reproduces it bit for bit, random stream included.  :mod:`.budget` holds
the evaluation counter the tests check the runtime ledger against.
:mod:`.ode` is a cross-validation model, not a scalar twin of an optimized
routine: the fast steady-state model must agree with it in ordering and
rough magnitude.
"""
