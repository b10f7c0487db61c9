"""Per-realization phase-shifter optimization with the quadratic transform.

For a fixed channel draw the sum-rate is maximised by alternating a
closed-form auxiliary update, an entrywise phase alignment, and a refresh of
the ZF precoders.  With discrete hardware the converged phases are projected
once onto the nearest grid points (`quantize_phases`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .channel import ChannelRealization, SystemConfig, effective_channel
from .errors import ValidationError
from .rate import instantaneous_user_rate, zf_precoder

_DIP_TOLERANCE = 1e-9


def compute_zf_precoders(real: ChannelRealization, theta: np.ndarray):
    """Per-subcarrier ZF precoders for the effective channel at theta.

    Returns (h_eff (M,K,Nt), f (M,Nt,K), u_norm2 (M,K)), each with the
    leading (T,) axis of a stacked realization.
    """
    h_eff = effective_channel(real, theta)
    _, f, u_norm2 = zf_precoder(h_eff)
    return h_eff, f, u_norm2


def sum_rate_for_phases(real: ChannelRealization, theta: np.ndarray,
                        cfg: SystemConfig) -> np.ndarray:
    """True ZF sum-rate of each realization of a stack at its (T, Nr) phases."""
    return _sum_rates(compute_zf_precoders(real, theta)[2], cfg)


def _sum_rates(u_norm2: np.ndarray, cfg: SystemConfig) -> np.ndarray:
    """ZF sum-rate of each realization from its (M, K) squared precoder norms."""
    rates = instantaneous_user_rate(cfg.power_per_stream, cfg.sigma2, u_norm2)
    return np.sum(rates, axis=(-2, -1))


def update_auxiliary(h_eff: np.ndarray, f: np.ndarray, cfg: SystemConfig) -> np.ndarray:
    """Closed-form auxiliary variables gamma[m, k] = (h_eff_k^H f_k) p / sigma2,
    with any leading stack axes of h_eff and f."""
    coupled = np.einsum("...mkt,...mtk->...mk", h_eff, f)
    return coupled * (cfg.power_per_stream / cfg.sigma2)


def update_phases(real: ChannelRealization, gammas: np.ndarray, f: np.ndarray,
                  prev_theta: np.ndarray) -> np.ndarray:
    """Entrywise-optimal unit-modulus phases for fixed auxiliaries and
    precoders; elements with a zero steering sum keep their previous value.
    A stacked realization gives one phase vector per realization."""
    # v[k, m, :] = diag(h_k^H) G^H f_k, zero for a user the panel cannot
    # serve; nu accumulates conj(gamma) v.  gf[m] = (f^H G)^* per
    # subcarrier, so conj(G) is never formed.
    gf = np.conj(np.conj(np.swapaxes(f, -1, -2)) @ real.g)
    v = np.conj(real.h) * np.swapaxes(gf, -3, -2)
    # A plain reduction: a BLAS matrix-vector product over these few (M*K)
    # rows took up to 8 ms a call with two OpenBLAS threads on a 2-vCPU guest.
    nu = np.sum(np.swapaxes(np.conj(gammas), -1, -2)[..., None] * v, axis=(-3, -2))
    mags = np.abs(nu)
    return np.where(mags > 0.0, nu / np.where(mags > 0.0, mags, 1.0), prev_theta)


def quantize_phases(theta: np.ndarray, bits: int) -> np.ndarray:
    """Snap each phase to the nearest of 2^bits uniformly spaced angles,
    breaking ties toward the lower angle."""
    if bits < 1:
        raise ValidationError("need at least one resolution bit")
    levels = 2 ** bits
    grid = 2.0 * np.pi * np.arange(levels) / levels
    angles = np.mod(np.angle(theta), 2.0 * np.pi)
    diff = np.abs(angles[:, None] - grid[None, :])
    dist = np.minimum(diff, 2.0 * np.pi - diff)
    # argmin returns the first (lowest-angle) index on exact ties
    chosen = np.argmin(dist, axis=1)
    return np.exp(1j * grid[chosen])


@dataclass
class PhaseOptResult:
    phases: np.ndarray
    objective_trace: list = field(default_factory=list)
    dips: list = field(default_factory=list)
    iterations: int = 0


class PhaseOptResults(list):
    """The PhaseOptResult of each realization of a stack, in stack order;
    `iterations` and `dips` total them."""

    @property
    def iterations(self) -> int:
        return sum(result.iterations for result in self)

    @property
    def dips(self) -> list:
        return [dip for result in self for dip in result.dips]


def optimize_phases(real: ChannelRealization, cfg: SystemConfig, *, max_iters: int,
                    tol: float) -> PhaseOptResults:
    """Alternate auxiliary and phase updates from all-ones phases until the
    sum-rate converges, for each realization of a stack.

    The trace records the true sum-rate after each precoder refresh, so it is
    nondecreasing by construction: the quadratic transform guarantees ascent
    for fixed precoders only, and an update whose refresh lowers the
    objective is rejected, ending the run at the incumbent (drops beyond the
    1e-9 relative tolerance are reported in `dips`).

    The T realizations run together, and each one's run equals its run in
    a stack of one; a realization whose run ends leaves the stack.
    """
    if max_iters < 1:
        raise ValidationError("need at least one iteration")
    theta = np.ones((real.h.shape[0], real.h.shape[-1]), dtype=complex)

    h_eff, f, u_norm2 = compute_zf_precoders(real, theta)
    traces = [[float(rate)] for rate in _sum_rates(u_norm2, cfg)]
    dips = [[] for _ in traces]
    final = theta.copy()
    live = np.arange(len(traces))  # the realization at each stack position
    for it in range(1, max_iters):
        gammas = update_auxiliary(h_eff, f, cfg)
        theta_cand = update_phases(real, gammas, f, theta)
        h_cand, f_cand, u_cand = compute_zf_precoders(real, theta_cand)
        running = []
        for j, (i, rate) in enumerate(zip(live, _sum_rates(u_cand, cfg).tolist())):
            trace = traces[i]
            if rate < trace[-1]:
                # The ascent guarantee holds only for fixed precoders; a
                # refresh that lowers the true objective ends the run at the
                # incumbent.
                drop = trace[-1] - rate
                if drop > _DIP_TOLERANCE * max(1.0, abs(trace[-1])):
                    dips[i].append((it, drop))
                continue
            trace.append(rate)
            final[i] = theta_cand[j]
            if abs(trace[-1] - trace[-2]) > tol * max(1.0, abs(trace[-2])):
                running.append(j)
        if not running:
            break
        if len(running) < len(live):  # ended runs leave the stack
            real = replace(real, g=real.g[running], d=real.d[running], h=real.h[running])
            live, theta_cand = live[running], theta_cand[running]
            h_cand, f_cand = h_cand[running], f_cand[running]
        theta, h_eff, f = theta_cand, h_cand, f_cand

    return PhaseOptResults(
        PhaseOptResult(phases=phases, objective_trace=trace, dips=run_dips, iterations=len(trace))
        for phases, trace, run_dips in zip(final, traces, dips))
