"""Resource budgets.

The engine must fail loudly rather than hang, so every potentially explosive
computation (pair queues, term counts, factorization degree, descent ansatz,
separation retries, group closure) checks against a Budget.

There is one budget per command.  `using(budget)` installs it for the calls
made inside a `with` block and `current()` reads it; outside any block the
default `Budget()` applies.  The CLI installs the budget built from its flags
while it parses the scene, and `cli.run(..., budget=)` installs its argument
around every scene command, so the budget echoed in a report header is the
one every check saw.  The kernels `buchberger`, `normal_form_list`,
`factor_univariate`, `enumerate_group` and `trace_form` also take an
explicit budget for a single call; None means `current()`.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass


@dataclass(frozen=True)
class Budget:
    max_pairs: int = 50_000        # Buchberger critical pairs processed
    max_terms: int = 100_000       # term count of any intermediate polynomial
    degree_bound: int = 64         # univariate factorization degree
    ansatz_degree: int = 6         # descent-solver numerator degree cap
    separation_retries: int = 8    # fresh linear forms before SeparationFailure
    group_bound: int = 10_000      # group closure enumeration cap


DEFAULT = Budget()

_CURRENT: ContextVar[Budget] = ContextVar("orbint_budget", default=DEFAULT)


def current() -> Budget:
    """The budget installed by the innermost `using` block, else DEFAULT."""
    return _CURRENT.get()


@contextmanager
def using(budget: Budget):
    """Install `budget` for the block; the previous one is restored on exit,
    also when the block raises."""
    token = _CURRENT.set(budget)
    try:
        yield
    finally:
        _CURRENT.reset(token)
