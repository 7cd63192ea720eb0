"""The recurrence half of the Cephes digamma port, psi(K + t) - psi(t) for K <= 9.

No route of the package calls this module, and the package does not import
it.  The complete-period L(1) used it until it became the closed form minus
a Taylor tail (lseries._chi_over_n_by_periods).  The port's asymptotic
branch for K >= 10 is deleted; this half goes with its tests in the next
change (ROADMAP item 4).
"""

from __future__ import annotations

import numpy as np

# scipy.special.digamma at x > 0 is Cephes' psi.  Its rational approximation
# on [1, 2] is Boost's (John Maddock, 2006, Boost Software License 1.0):
# psi(x) = g Y + g P(x - 1)/Q(x - 1), where g = x - root is taken off in
# three parts, root = 1.4616... being the positive zero of psi.  Y is a
# float32 constant in the C source, widened to double; its literal is a
# float32 value already (0x1.fdbcep-1), so the widening changes no bit.
_PSI_Y = float(np.float32(0.99558162689208984))
_PSI_ROOT1 = 1569415565.0 / 1073741824.0
_PSI_ROOT2 = (381566830.0 / 1073741824.0) / 1073741824.0
_PSI_ROOT3 = 0.9016312093258695918615325266959189453125e-19
_PSI_P = (
    -0.0020713321167745952,
    -0.045251321448739056,
    -0.28919126444774784,
    -0.65031853770896507,
    -0.32555031186804491,
    0.25479851061131551,
)
_PSI_Q = (
    -0.55789841321675513e-6,
    0.0021284987017821144,
    0.054151797245674225,
    0.43593529692665969,
    1.4606242909763515,
    2.0767117023730469,
    1.0,
)
# Elements per pass of _digamma_pair: its five scratch rows (640 KiB) stay
# in a 2 MiB L2 cache.
_PSI_CHUNK = 2**14


def _polevl(z: np.ndarray, coef: tuple[float, ...], out: np.ndarray) -> np.ndarray:
    """coef[0] z^N + ... + coef[N] by Horner's rule into out, as Cephes' polevl."""
    np.multiply(z, coef[0], out)
    np.add(out, coef[1], out)
    for c in coef[2:]:
        np.multiply(out, z, out)
        np.add(out, c, out)
    return out


def _psi_1_2(x: np.ndarray, out: np.ndarray, s: np.ndarray, g: np.ndarray) -> np.ndarray:
    """psi(x) for x in [1, 2] into out (Cephes' digamma_imp_1_2); s, g scratch."""
    np.subtract(x, 1.0, g)
    _polevl(g, _PSI_P, out)
    np.divide(out, _polevl(g, _PSI_Q, s), out)
    np.subtract(x, _PSI_ROOT1, g)
    np.subtract(g, _PSI_ROOT2, g)
    np.subtract(g, _PSI_ROOT3, g)
    np.multiply(g, _PSI_Y, s)
    np.multiply(g, out, out)
    return np.add(s, out, out)


def _digamma_pair(K: int, t: np.ndarray) -> np.ndarray:
    """psi(K + t) - psi(t) for an int 1 <= K <= 9 and float64 t in (0, 1).

    Each psi follows Cephes' psi, which scipy.special.digamma runs at
    x > 0, operation for operation, so the pair equals scipy's bit for bit:
      - psi(t) = -1/t + R(t + 1), R the rational approximation on [1, 2];
      - psi(K + t) takes x -= 1, y += 1/x down to (1, 2), then R.
    Cephes' branch for an integer x <= 10 never runs for t = r/q with
    q <= 2^26, which is at least 2^-26 from 0 and from 1, far above an ulp
    of K + t.  The work goes in chunks of _PSI_CHUNK elements through
    reused scratch rows.
    """
    n = t.size
    out = np.empty(n, dtype=np.float64)
    m = min(n, _PSI_CHUNK)
    rows = np.empty((5, m), dtype=np.float64)
    for lo in range(0, n, m):
        k = min(m, n - lo)
        tc = t[lo : lo + k]
        x, y, a, b, c = (row[:k] for row in rows)
        res = out[lo : lo + k]
        # psi(t)
        np.divide(-1.0, tc, res)
        np.add(tc, 1.0, x)
        np.add(res, _psi_1_2(x, a, b, c), res)
        # psi(K + t), into a
        np.add(tc, float(K), x)
        a.fill(0.0)
        for _ in range(K - 1):
            np.subtract(x, 1.0, x)
            np.add(a, np.divide(1.0, x, b), a)
        np.add(a, _psi_1_2(x, b, c, y), a)
        np.subtract(a, res, res)
    return out
