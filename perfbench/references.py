"""Reference computations the benchmark checks robustmm's outputs against.

Everything here is written from the formulas in robustmm's module
docstrings and uses numpy only, so a fault in the program cannot hide
behind the same fault in its reference.

Flow curves are given as ("constant", (c,)), ("affine", (a, b)) or
("exp_decay", (a, k)) pairs, the shapes the config format accepts.
"""
from __future__ import annotations

import math

import numpy as np

# Gauss-Legendre nodes for averaging a smooth curve over one policy cell.
_GL_X, _GL_W = np.polynomial.legendre.leggauss(8)


def curve(spec, eps):
    """Value of a flow curve spec at the half-spreads eps."""
    kind, params = spec
    eps = np.asarray(eps, dtype=float)
    if kind == "constant":
        return np.full(eps.shape, float(params[0]))
    if kind == "affine":
        return params[0] + params[1] * eps
    if kind == "exp_decay":
        return params[0] * np.exp(-params[1] * eps)
    raise ValueError(f"unknown curve kind {kind!r}")


def sample_moments(values):
    """(alpha_n, beta_n, variance) of one side's sample."""
    x = np.asarray(values, dtype=float)
    alpha = float(np.mean(x))
    beta = float(np.mean(x * x))
    return alpha, beta, max(beta - alpha * alpha, 0.0)


def envelope(alpha_n, variance, delta, alpha):
    """Worst-case second moment beta(alpha) = (sqrt(var) + sqrt(delta -
    (alpha - alpha_n)^2))^2 + alpha^2 on the mean interval."""
    room = np.maximum(delta - (np.asarray(alpha, dtype=float) - alpha_n) ** 2, 0.0)
    return (math.sqrt(variance) + np.sqrt(room)) ** 2 + np.asarray(alpha) ** 2


def trapezoid_axis(eps_max, grid_n):
    """Nodes, weights and per-node cells of the trapezoid rule on [0, eps_max]."""
    x = np.linspace(0.0, eps_max, grid_n)
    step = eps_max / (grid_n - 1)
    w = np.full(grid_n, step)
    w[0] = w[-1] = step / 2.0
    lo = np.concatenate([[0.0], (x[:-1] + x[1:]) / 2.0])
    hi = np.concatenate([(x[:-1] + x[1:]) / 2.0, [eps_max]])
    return x, w, lo, hi


class GibbsGrid:
    """The Gibbs exponent of the quoting model, tabulated on a grid.

    exponent = [ (A - 2 eta C h+) a+ - (B - 2 eta C h-) a-
                 - eta (h+^2 b+ - 2 h+ h- a+ a- + h-^2 b-)
                 + (S + e+) f+ - (S - e-) f- - eta C^2 ] / gamma
    with A = (S + e+) h+, B = (S - e-) h- and C = Q + f+ - f-.
    """

    def __init__(self, model, eps_max, grid_n):
        self.model = model
        self.x, self.w, self.lo, self.hi = trapezoid_axis(eps_max, grid_n)
        self.wprod = self.w[:, None] * self.w[None, :]

    def exponent(self, ap, am, bp, bm):
        m = self.model
        ep = self.x[:, None]
        em = self.x[None, :]
        hp, hm = curve(m["h_plus"], ep), curve(m["h_minus"], em)
        fp, fm = curve(m["f_plus"], ep), curve(m["f_minus"], em)
        eta = m["eta"]
        c = m["Q"] + fp - fm
        value = (
            ((m["S"] + ep) * hp - 2.0 * eta * c * hp) * ap
            - ((m["S"] - em) * hm - 2.0 * eta * c * hm) * am
            - eta * (hp * hp * bp - 2.0 * hp * hm * ap * am + hm * hm * bm)
            + (m["S"] + ep) * fp - (m["S"] - em) * fm - eta * c * c
        )
        return value / m["gamma"]

    def log_mass(self, ap, am, bp, bm):
        """log of the trapezoid integral of exp(exponent)."""
        e = self.exponent(ap, am, bp, bm) + np.log(self.wprod)
        top = float(np.max(e))
        return top + math.log(float(np.sum(np.exp(e - top))))

    def objective(self, ap, am, bp, bm):
        """-gamma times the trapezoid integral of the Gibbs mass."""
        return -self.model["gamma"] * math.exp(self.log_mass(ap, am, bp, bm))

    def density(self, ap, am, bp, bm):
        """Normalized Gibbs density at the grid nodes."""
        e = self.exponent(ap, am, bp, bm)
        t = np.exp(e - np.max(e))
        return t / float(np.sum(t * self.wprod))

    def cell_mean(self, fn):
        """Average of fn(eps) over each policy cell."""
        half = (self.hi - self.lo) / 2.0
        mid = (self.hi + self.lo) / 2.0
        return fn(mid[:, None] + half[:, None] * _GL_X[None, :]) @ _GL_W / 2.0


def expected_episode_objective(grid, model, cell_probs, law_plus, law_minus):
    """Expected realized objective of one episode.

    The spread pair falls in cell (i, j) with probability cell_probs[i, j]
    and is uniform within it. The innovations are independent, with
    (mean, second moment) law_plus and law_minus. With fills
    dN = h(eps) xi + f(eps), the episode scores
    (S + e+) dN+ - (S - e-) dN- - eta (Q + dN+ - dN-)^2. Every term
    separates into a curve of e+ times a curve of e-, so each cell
    average is a product of per-axis cell averages.
    """
    S, Q, eta = model["S"], model["Q"], model["eta"]

    def side(h, f, law, sign):
        # per-cell E[dN], E[dN^2] and E[(S + sign * eps) dN]
        mean, second = law

        def fill(e):
            return mean * curve(h, e) + curve(f, e)

        first = grid.cell_mean(fill)
        sq = grid.cell_mean(lambda e: second * curve(h, e) ** 2
                            + 2.0 * mean * curve(h, e) * curve(f, e) + curve(f, e) ** 2)
        cash = grid.cell_mean(lambda e: (S + sign * e) * fill(e))
        return first, sq, cash

    p1, p2, pc = side(model["h_plus"], model["f_plus"], law_plus, 1.0)
    m1, m2, mc = side(model["h_minus"], model["f_minus"], law_minus, -1.0)
    cash = pc[:, None] - mc[None, :]
    inv_sq = (Q * Q + p2[:, None] + m2[None, :] + 2.0 * Q * p1[:, None]
              - 2.0 * Q * m1[None, :] - 2.0 * p1[:, None] * m1[None, :])
    return float(np.sum(cell_probs * (cash - eta * inv_sq)))


def shifted_law_moments(values, mean_shift, sd_scale):
    """(mean, second moment) of the empirical law pushed through
    x -> mean_shift + mean + sd_scale * (x - mean)."""
    alpha, _, var = sample_moments(values)
    mean = alpha + mean_shift
    return mean, mean * mean + sd_scale * sd_scale * var


def profile_values(alpha_n, sigma_n, n, targets):
    """The profile R for a stack of targets (ap, am, bp, bm), each of
    shape (k,), against empirical mean vector alpha_n and product-measure
    second-moment matrix sigma_n:

        R = da'da / (4n(1-g)) + a' P D^2 P a / (4n(1-g))
          + a' P D da / (2n(1-g)) + tr(D P D) / (2n) + tr(P D^2 P Sigma_n) / (4n)

    with P = Sigma_n^{-1}, D = Sigma_n - Sigma*, g = a' P a and a = alpha_n.
    """
    ap, am, bp, bm = (np.asarray(t, dtype=float) for t in targets)
    a = np.asarray(alpha_n, dtype=float)
    p = np.linalg.inv(np.asarray(sigma_n, dtype=float))
    g = float(a @ p @ a)
    star = np.empty((len(ap), 2, 2))
    star[:, 0, 0] = bp
    star[:, 1, 1] = bm
    star[:, 0, 1] = star[:, 1, 0] = ap * am
    d = np.asarray(sigma_n)[None, :, :] - star
    da = np.stack([ap - a[0], am - a[1]], axis=1)
    dpa = d @ (p @ a)
    k = 4.0 * n * (1.0 - g)
    t1 = np.einsum("ki,ki->k", da, da) / k
    t2 = np.einsum("ki,ki->k", dpa, dpa) / k
    t3 = 2.0 * np.einsum("ki,ki->k", dpa, da) / k
    dpd = d @ p @ d
    t4 = np.trace(dpd, axis1=1, axis2=2) / (2.0 * n)
    t5 = np.trace(p @ d @ d @ p @ np.asarray(sigma_n), axis1=1, axis2=2) / (4.0 * n)
    return t1 + t2 + t3 + t4 + t5
