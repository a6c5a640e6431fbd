"""The quasi-Newton search that both steps' likelihood fits run on.

``_bfgs`` is a generator that asks for one point at a time, so that
``_lockstep`` can run several starts together and evaluate the points they
ask for in one call: Step I's batched GLS profile, or Step II's kernel.
"""

from __future__ import annotations

from typing import NamedTuple


class _Search(NamedTuple):
    """What one ``_bfgs`` search reports, under ``scipy.optimize``'s names."""

    x: list
    fun: float
    nit: int
    nfev: int
    success: bool
    message: str


def _bfgs(x0, gtol: float, ftol: float, maxiter: int):
    """Minimise a function by BFGS from ``x0``, a list of floats (Nocedal &
    Wright 2006, ch. 6), as a generator: it yields x, the point it needs
    next, is sent ``(f, gradient)``, or ``(f, None)`` where f is a penalty,
    and returns a ``_Search``.

    The inverse-Hessian estimate H starts at the identity and is updated
    only when s'y > 0; the first such step sets it to s'y / y'y times the
    identity (their eq. 6.20) before the update.  Until then, a step with
    s'y <= 0 sets H to I / |g|_inf, so that the next trial is a unit
    steepest-descent step rather than one as small as g.  Each step
    backtracks by halves from p = -H g, shortened to unit infinity norm
    where it is longer, until f falls by 1e-4 of the predicted reduction
    (Armijo).  Near the optimum f's rounding swamps that test, so once the
    predicted reduction -g'p is at most ``ftol`` max(|f|, 1), a trial is also
    taken when it lowers |g|_inf and raises f by at most that much.  Success
    is |g|_inf <= ``gtol``; the search fails after ``maxiter`` steps, or when
    halving leaves x unchanged."""
    n = len(x0)
    x = list(x0)
    f, g = yield x
    nfev, nit = 1, 0
    if g is None:
        return _Search(x, f, nit, nfev, False, "the start has no finite value")
    identity = [[float(i == j) for j in range(n)] for i in range(n)]
    H, curved = identity, False
    while (g_max := max(map(abs, g))) > gtol:
        if nit >= maxiter:
            return _Search(x, f, nit, nfev, False, "the iteration limit was reached")
        p = [-sum(hij * gj for hij, gj in zip(row, g)) for row in H]
        if not sum(pi * gi for pi, gi in zip(p, g)) < 0:  # H lost definiteness to rounding
            H = identity
            p = [-gi for gi in g]
        p_max = max(map(abs, p))
        if p_max > 1.0:
            p = [pi / p_max for pi in p]
        slope = sum(pi * gi for pi, gi in zip(p, g))
        resolution = ftol * max(abs(f), 1.0)
        alpha = 1.0
        while True:
            x_new = [xi + alpha * pi for xi, pi in zip(x, p)]
            if x_new == x:
                return _Search(x, f, nit, nfev, False, "the line search found no lower value")
            f_new, g_new = yield x_new
            nfev += 1
            if g_new is not None and (
                    f_new <= f + 1e-4 * alpha * slope
                    or (-slope <= resolution and f_new <= f + resolution
                        and max(map(abs, g_new)) < g_max)):
                break
            alpha *= 0.5
        s = [a - b for a, b in zip(x_new, x)]
        y = [a - b for a, b in zip(g_new, g)]
        sy = sum(a * b for a, b in zip(s, y))
        if sy > 0:
            if not curved:
                H = [[sy / sum(a * a for a in y) * v for v in row] for row in identity]
                curved = True
            Hy = [sum(hij * yj for hij, yj in zip(row, y)) for row in H]
            c = (1.0 + sum(a * b for a, b in zip(y, Hy)) / sy) / sy
            H = [[H[i][j] - (Hy[i] * s[j] + s[i] * Hy[j]) / sy + c * s[i] * s[j]
                  for j in range(n)] for i in range(n)]
        elif not curved and (g_new_max := max(map(abs, g_new))) > 0:
            H = [[v / g_new_max for v in row] for row in identity]
        nit += 1
        x, f, g = x_new, f_new, g_new
    return _Search(x, f, nit, nfev, True, "|gradient|_inf <= gtol")


def _lockstep(searches, evaluate) -> list:
    """Run the generators ``searches`` (``_bfgs``) together and return their
    results in order.  Each round gathers the point that every unfinished
    search asks for, in search order, and makes one ``evaluate(points)``
    call for their values."""
    results = [None] * len(searches)
    asks = {i: next(search) for i, search in enumerate(searches)}
    while asks:
        for i, value in zip(list(asks), evaluate(list(asks.values()))):
            try:
                asks[i] = searches[i].send(value)
            except StopIteration as done:
                results[i] = done.value
                del asks[i]
    return results
