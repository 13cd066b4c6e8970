"""Green kernels on the half-line and their Schur-test integrals.

Two kernel families invert the model operators -d^2/dx^2 + x^{-2}(nu^2-1/4)
(+ beta^2):

* free (beta = 0):   k(x,y) = (1/2nu) (y/x)^nu (xy)^{1/2}   for y <= x,
* bessel (beta > 0): k(x,y) = (xy)^{1/2} I_nu(beta y) K_nu(beta x), y <= x,

both extended symmetrically.  Each is semiseparable: f_lo(x) g_lo(y) for
y <= x and f_hi(x) g_hi(y) above.  Weighted variants x^w (x d/dx)^a k act on
the x-side generators only, analytically: by power rules for the free
kernel and by the order recurrences

    (u d/du)[u^k K_m] = (k+m) u^k K_m - u^{k+1} K_{m+1},
    (u d/du)[u^k I_m] = (k+m) u^k I_m + u^{k+1} I_{m+1},

for the Bessel kernel.  They are evaluated in log space in two stages:
``kernel_factors`` takes the logarithms, the Bessel factors (all orders,
of one point set or of two, in one log_bessel_ik call) and the y-side
generators ln g_lo, ln g_hi at each side's points before broadcasting, and
``weighted_kernel_from_factors`` combines them, exponentiating each entry's
own branch in place in the result; underflow clamps to 0 and overflow gives
inf.
``weighted_kernel_matrix`` is the one evaluator of the weighted kernel;
one set of factors at the grid nodes serves the x-side and the y-side of
every action's matrix.

``require_witt_order`` is the one Witt floor nu > 3/2 of the toolkit: every
layer that takes an order calls it, and nothing else raises
``WittViolationError``.  ``exact_weighted_norm`` gives the exact L^2 norms of
the weighted inverses from their Mellin symbols (``mellin_symbol``).
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bessel import log_bessel_ik
from .errors import (ConfigurationError, DomainError, PreconditionError,
                     WittViolationError)

WEIGHT_POWERS = (0, -1, -2)
EDGE_DERIVATIVES = (0, 1, 2)
# the Witt floor on the Bessel order, exact so that Fraction inputs stay so
WITT_FLOOR = Fraction(3, 2)


def require_witt_order(nu) -> None:
    """Raise WittViolationError unless the Bessel order nu exceeds 3/2.

    A fiber eigenvalue s gives the order nu = |s| + 1/2, so the floor is the
    spectral Witt condition |s| > 1.  It is where the Schur row integral of
    x^-2 k, (nu^2 - 9/4)^-1, diverges: the free kernel's branch
    x^(nu+1/2) y^(1/2-nu) for y >= x is integrable as y -> infinity only for
    nu > 3/2.  The test ``not nu > float(WITT_FLOOR)`` fails NaN, is exact
    for a Fraction nu, and spares a float nu a Fraction comparison (about
    100 times slower).  This is the only place that raises
    WittViolationError.  An order whose square nu^2 (the coefficient of
    every model operator) is not a finite float raises ConfigurationError.
    """
    if not nu > float(WITT_FLOOR):
        raise WittViolationError(
            f"order nu={nu} violates the Witt floor nu > {WITT_FLOOR}")
    if not math.isfinite(float(nu) * float(nu)):
        raise ConfigurationError(f"order nu={nu} is too large: nu^2 overflows")


@dataclass(frozen=True)
class ConeKernel:
    """Immutable description of one inverse kernel: the free kernel when
    beta = 0, the Bessel kernel when beta > 0.

    ``nu`` must pass ``require_witt_order`` (nu > 3/2); the Schur integrals
    diverge as nu -> 3/2.  ``beta`` is tested as ``not beta >= 0`` so that
    NaN fails.
    """

    nu: float
    beta: float = 0.0

    def __post_init__(self):
        require_witt_order(self.nu)
        if not self.beta >= 0.0:
            raise ConfigurationError("beta must be nonnegative")


@dataclass(frozen=True)
class WeightedAction:
    """Left composition x^weight_power followed by (x d/dx)^edge_derivatives."""

    weight_power: int = 0
    edge_derivatives: int = 0

    def __post_init__(self):
        if self.weight_power not in WEIGHT_POWERS:
            raise ConfigurationError("weight_power must be in {0, -1, -2}")
        if self.edge_derivatives not in EDGE_DERIVATIVES:
            raise ConfigurationError("edge_derivatives must be in {0, 1, 2}")


IDENTITY_ACTION = WeightedAction(0, 0)


def _bessel_terms(nu, w, a, side):
    """Term list [(coef, k_power, offset)] for (u d/du)^a [u^{w+1/2} B_nu(u)].

    ``side`` is "K" (sign -1 on the order-raising term) or "I" (sign +1).
    Orders nu + offset only ever move up, keeping them positive.
    """
    step = -1.0 if side == "K" else 1.0
    terms = {(w + 0.5, 0): 1.0}
    for _ in range(a):
        new = {}
        for (k, off), c in terms.items():
            m = nu + off
            new[(k, off)] = new.get((k, off), 0.0) + c * (k + m)
            new[(k + 1.0, off + 1)] = new.get((k + 1.0, off + 1), 0.0) + c * step
        terms = new
    return [(c, k, off) for (k, off), c in sorted(terms.items()) if c != 0.0]


@dataclass(frozen=True)
class KernelFactors:
    """Log-space factors of one kernel at an array of positive, finite x.

    Each kernel is f_lo(x) g_lo(y) for y <= x and f_hi(x) g_hi(y) above.
    ``log_g_lo`` and ``log_g_hi`` are ln g_lo and ln g_hi at these points:
    (nu + 1/2) ln y and (1/2 - nu) ln y for the free kernel, and
    1/2 ln y + ln I_nu(beta y) and 1/2 ln y + ln K_nu(beta y) for the Bessel
    kernel.  The x-side reads ``log_x`` = ln x (free) or ``log_u`` =
    ln(beta x) with ``log_i[j]`` and ``log_k[j]``, ln I and ln K of order
    nu + j at beta x, j < orders (Bessel): an action with a edge
    derivatives reads orders nu..nu+a.
    """

    x: np.ndarray
    log_x: np.ndarray
    log_g_lo: np.ndarray
    log_g_hi: np.ndarray
    log_u: np.ndarray = None
    log_i: tuple = ()
    log_k: tuple = ()

    def reshape(self, *shape):
        """The same factors with every array reshaped (views, no copy)."""
        def r(arr):
            return None if arr is None else arr.reshape(shape)
        return KernelFactors(r(self.x), r(self.log_x), r(self.log_g_lo),
                             r(self.log_g_hi), r(self.log_u),
                             tuple(map(r, self.log_i)),
                             tuple(map(r, self.log_k)))


def kernel_factors(kernel: ConeKernel, x, orders: int = 1, y=None):
    """Factor stage of the weighted kernel at the positive, finite points x,
    holding the orders nu..nu+orders-1; ``orders`` is an int >= 1.

    Given a second point set ``y``, it returns the pair (factors of x,
    factors of y at order nu alone).  For beta > 0 it makes one
    log_bessel_ik call over every (order, point) pair of both sets; the
    free kernel needs no Bessel factor.  A value depends on its own order
    and point alone, so it is the same whichever call computes it.
    """
    if not (isinstance(orders, (int, np.integer)) and orders >= 1):
        raise ConfigurationError(
            f"kernel factors need an int count of orders >= 1, not {orders!r}")
    sets = [(np.asarray(x, float), orders)]
    if y is not None:
        sets.append((np.asarray(y, float), 1))
    for points, _ in sets:
        if not np.all((points > 0.0) & (points < np.inf)):
            raise DomainError("kernel arguments must be positive and finite")
    nu, beta = kernel.nu, kernel.beta
    if beta > 0.0:
        us = [beta * points for points, _ in sets]
        # each set in turn, row j of a set holding order nu + j at its points
        log_i, log_k = log_bessel_ik(
            nu, np.concatenate([np.tile(u.ravel(), n)
                                for u, (_, n) in zip(us, sets)]),
            np.concatenate([np.repeat(np.arange(n), u.size)
                            for u, (_, n) in zip(us, sets)]))[:2]
    out, start = [], 0
    for k, (points, n) in enumerate(sets):
        log_x = np.log(points)
        if beta == 0.0:
            out.append(KernelFactors(points, log_x, (nu + 0.5) * log_x,
                                     (-nu + 0.5) * log_x))
            continue
        u, stop = us[k], start + n * points.size
        li = tuple(log_i[start:stop].reshape((n,) + u.shape))
        lk = tuple(log_k[start:stop].reshape((n,) + u.shape))
        half_log_x = 0.5 * log_x
        out.append(KernelFactors(points, log_x, half_log_x + li[0],
                                 half_log_x + lk[0], np.log(u), li, lk))
        start = stop
    return out[0] if y is None else tuple(out)


def _free_x_part(nu, w, a, fx: KernelFactors):
    """Yield (S, L) of the y <= x branch, then of the y > x branch: the
    x-factor of x^w (x d/dx)^a k is S exp(L), x^ex times ex^a / (2 nu)."""
    for ex in (w - nu + 0.5, w + nu + 0.5):
        yield (ex ** a) / (2.0 * nu), ex * fx.log_x


def _bessel_x_part(nu, w, a, beta, fx: KernelFactors):
    """Yield (S, L) of the K side (y <= x), then of the I side, of the
    x-factor, whose value is S exp(L) elementwise over x.

    Each side's factor is beta^{-(w+1/2)} sum_t c_t u^{k_t} B_{nu+off_t}(u)
    with u = beta x; both sides read the orders nu..nu+a of ``fx``.
    """
    if len(fx.log_i) <= a:
        raise ConfigurationError(
            f"x factors hold {len(fx.log_i)} orders, the action needs {a + 1}")
    for side, log_b in (("K", fx.log_k), ("I", fx.log_i)):
        terms = _bessel_terms(nu, w, a, side)
        logs = np.array([k * fx.log_u + log_b[off] for _, k, off in terms])
        lmax = logs.max(axis=0)
        # summed term by term, in one order for every shape of x (einsum's
        # order depends on the shape), so a value does not depend on its batch
        with np.errstate(under="ignore"):
            s = sum(c * e for (c, _, _), e in zip(terms, np.exp(logs - lmax)))
        yield s, lmax - (w + 0.5) * math.log(beta)


def weighted_kernel_from_factors(kernel: ConeKernel, action: WeightedAction,
                                 fx: KernelFactors, fy: KernelFactors):
    """Combine stage: [x^w (x d/dx)^a k](x, y) from the factors of x (orders
    nu..nu+a) and of y, whose arrays broadcast.

    It makes no Bessel call, so the factors can be shared by every action.
    The x-side is the only part that depends on the kernel; the branches
    meet here, in the result array itself: each entry's exponent is that of
    its own branch, exponentiated in place and scaled by that branch's S,
    so beside the result only the branch masks are held.  Underflow clamps
    to 0 and overflow gives inf, which ``grids.nystrom_assemble`` refuses.
    """
    nu, w, a = kernel.nu, action.weight_power, action.edge_derivatives
    if kernel.beta == 0.0:
        x_part = _free_x_part(nu, w, a, fx)
    else:
        x_part = _bessel_x_part(nu, w, a, kernel.beta, fx)
    (s_lo, log_f_lo), (s_hi, log_f_hi) = x_part
    lower = fy.x <= fx.x
    upper = ~lower
    # only the selected branch is exponentiated: the unused one's log
    # magnitude can overflow even though the selected branch never does
    out = np.add(log_f_hi, fy.log_g_hi)
    np.add(log_f_lo, fy.log_g_lo, out=out, where=lower)
    with np.errstate(under="ignore", over="ignore"):
        np.exp(out, out=out)
        np.multiply(out, s_lo, out=out, where=lower)
        np.multiply(out, s_hi, out=out, where=upper)
    return out


def weighted_kernel_matrix(kernel: ConeKernel, action: WeightedAction, xs, ys,
                           x_factors: KernelFactors = None,
                           y_factors: KernelFactors = None):
    """Dense matrix of the weighted kernel at the points xs (rows) x ys.

    Entry (i, j) = [x^w (x d/dx)^a k](x_i, y_j); no quadrature weights are
    applied.  ``x_factors`` and ``y_factors`` are the ``kernel_factors`` of
    xs and ys; a caller that builds several actions on the same points
    passes them so that the Bessel factors are evaluated once.  Those not
    passed are evaluated here, O(len(xs) + len(ys)) Bessel arguments.
    """
    if x_factors is None:
        x_factors = kernel_factors(kernel, xs, action.edge_derivatives + 1)
    if y_factors is None:
        y_factors = kernel_factors(kernel, ys)
    return weighted_kernel_from_factors(kernel, action,
                                        x_factors.reshape(-1, 1),
                                        y_factors.reshape(1, -1))


def free_schur_integrals(nu: float):
    """Closed-form Schur test integrals of the weighted free kernel.

    row = integral of x^{-2} k(x, y) dy over (0, infinity)  = (nu^2 - 9/4)^{-1},
    col = integral of x^{-2} k(x, y) dx over (0, infinity)  = (nu^2 - 1/4)^{-1};
    both independent of the free variable.  Divergent for nu <= 3/2.
    """
    require_witt_order(nu)
    return 1.0 / (nu * nu - 2.25), 1.0 / (nu * nu - 0.25)


def mellin_symbol(a: int, nu: float, tau):
    """Mellin symbol m_a(tau) of the free operator (X d/dx)^a X^-2 K on L^2.

    X^-2 K is a Mellin convolution, so the unitary Mellin transform of L^2
    (along x^(-1/2 + i tau)) turns it into multiplication by
    m_0(tau) = 1/((nu+1-i tau)(nu-1+i tau)), one partial fraction per kernel
    branch; each edge derivative multiplies a branch's term by that branch's
    x-exponent.  So ||(X d/dx)^a X^-2 K|| = sup over real tau of |m_a(tau)|.
    """
    return ((-nu - 1.5) ** a / (nu + 1 - 1j * tau)
            + (nu - 1.5) ** a / (nu - 1 + 1j * tau)) / (2 * nu)


def exact_weighted_norm(nu: float, a: int) -> float:
    """Exact L^2 norm n_a of (X d/dx)^a X^-2 K, the supremum of |m_a|.

    n_0 = (nu^2 - 1)^-1: m_0 = 1/((nu+1-i tau)(nu-1+i tau)) peaks at tau = 0.
    n_1: m_1 = -(1+2i tau)/(2(A+tau^2+2i tau)) with A = nu^2 - 1 peaks at
    tau^2 = s, the positive root of 4s^2 + 2s = 4A^2 - 2A - 4 (or at 0).
    n_2 = (1/2nu)[(nu+3/2)^2/(nu+1) + (nu-3/2)^2/(nu-1)]: both terms of m_2
    peak at tau = 0.

    The Schur rate (nu^2 - 9/4)^-1 only bounds n_0 from above.  For beta > 0
    the Bessel-kernel operator has the same norm n_a: it is beta-independent,
    because conjugating by the dilation x -> beta x is unitary on L^2; it is
    at most n_a, because T_beta = T_0 L (L + beta^2)^-1 with
    ||L (L + beta^2)^-1|| <= 1; and it is at least n_a, because
    T_beta -> T_0 strongly as beta -> 0.  A Nystrom norm on a truncated
    window approaches n_a from below.
    """
    require_witt_order(nu)
    if a not in EDGE_DERIVATIVES:
        raise ConfigurationError("edge_derivatives must be in {0, 1, 2}")
    big_a = nu * nu - 1.0
    if a == 0:
        return 1.0 / big_a
    if a == 1:
        s = max(0.0, (math.sqrt(16 * big_a * big_a - 8 * big_a - 15) - 1) / 4)
        return 0.5 * math.sqrt((1 + 4 * s) / ((big_a + s) ** 2 + 4 * s))
    return ((nu + 1.5) ** 2 / (nu + 1) + (nu - 1.5) ** 2 / (nu - 1)) / (2 * nu)


def decay_estimate_check(kernel: ConeKernel, y_nodes, y_weights, u_values,
                         x: float):
    """(|Ku(x)|, |(x d/dx) Ku(x)|) for u supported in [0, 1] and x > 1.

    Ku(x) is evaluated by quadrature over the support nodes; the derivative
    uses the analytic derivative kernel.  The claimed decay is
    |Ku(x)| <= (C/nu) ||u|| x^{-1-delta} with delta = nu - 3/2.
    """
    y_nodes = np.asarray(y_nodes, dtype=float)
    y_weights = np.asarray(y_weights, dtype=float)
    u_values = np.asarray(u_values, dtype=float)
    if not x > 1.0:
        raise PreconditionError("decay estimate is for x > 1")
    if np.any((y_nodes > 1.0) & (u_values != 0.0)):
        raise PreconditionError("u must be supported inside [0, 1]")
    mask = u_values != 0.0
    if not np.any(mask):
        return 0.0, 0.0
    yn, wn, un = y_nodes[mask], y_weights[mask], u_values[mask]
    return tuple(
        abs(float(weighted_kernel_matrix(kernel, act, [x], yn)[0] @ (wn * un)))
        for act in (IDENTITY_ACTION, WeightedAction(0, 1)))
