"""Precoding, Monte-Carlo rates, and the closed-form average-rate chain.

The analytic chain approximates the Gram matrix of the effective channel by a
central complex Wishart whose scale matrix combines the per-user channel
covariance with the outer product of the channel means.  A Sherman-Morrison
step turns the scale matrix's diagonal-plus-rank-one structure into scalar
formulas, and the expected log-rate follows from the digamma identity for the
diagonal of an inverted Wishart.  That identity needs psi(Nt-K+1) only, at an
integer argument, and `digamma` computes it in the package with the two
branches of cephes `psi` (Moshier, *Methods and Programs for Mathematical
Functions*, 1989) in cephes' operation order.  Special-function libraries
built on cephes give the same bits, so the CSV bytes do not depend on which
of them, if any, is installed.

Note on normalisation: channels here carry their total expected power in the
large-scale gain (unit-norm steering vectors), so the Wishart scale matrix of
the Gram is the covariance divided by the antenna count.  The rate formulas
below therefore divide the effective SNR by the antenna count; dropping that
factor overstates every rate by roughly the array size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import (
    LosGeometry,
    SystemConfig,
    precompute_los,
    sample_effective_channel,
)
from .errors import SingularChannel, ValidationError
from .geometry import CellGeometry, RisPose, UserLocation

_COND_LIMIT = 1e12

# Euler's constant and the asymptotic-series coefficients of cephes psi,
# highest power of 1/n^2 first.
_EULER = 0.57721566490153286061
_PSI_SERIES = (8.33333333333333333333E-2, -2.10927960927960927961E-2, 7.57575757575757575758E-3,
               -4.16666666666666666667E-3, 3.96825396825396825397E-3,
               -8.33333333333333333333E-3, 8.33333333333333333333E-2)


def digamma(n: int) -> float:
    """psi(n) for a positive integer n, in cephes' operation order: the
    harmonic sum minus Euler's constant up to 10, the asymptotic series above."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise ValidationError(f"digamma needs a positive integer, got {n!r}")
    if n <= 10:
        y = 0.0
        for i in range(1, n):
            y += 1.0 / i
        return y - _EULER
    s = float(n)
    z = 1.0 / (s * s)
    p = _PSI_SERIES[0]
    for a in _PSI_SERIES[1:]:
        p = p * z + a
    return math.log(s) - 0.5 / s - z * p


def zf_precoder(h_eff: np.ndarray):
    """Zero-forcing precoder for a K x Nt effective channel or a stack
    (..., K, Nt) of them.

    Returns (u, f, u_norm2): the unnormalised precoding matrices (..., Nt, K),
    their unit-norm columns, and the squared column norms (..., K) (the
    diagonal of the inverted Gram).  Raises SingularChannel when any Gram's
    condition number exceeds 1e12 or is not finite, or the SVD that tests
    it fails.
    """
    h_herm = np.conj(np.swapaxes(h_eff, -1, -2))
    gram = h_eff @ h_herm
    try:
        inv_gram = np.linalg.inv(gram)
        # ||G||_F ||G^-1||_F bounds cond(G) from above.  A bound under half
        # the limit is far from any rounding of the SVD test, which would
        # pass; otherwise the SVD test runs, so every decision is the SVD's.
        passed = np.all(np.sum(np.abs(gram) ** 2, axis=(-2, -1))
                        * np.sum(np.abs(inv_gram) ** 2, axis=(-2, -1)) <= (_COND_LIMIT / 2.0) ** 2)
    except np.linalg.LinAlgError:
        inv_gram, passed = None, False
    if not passed:
        try:
            svals = np.linalg.svd(h_eff, compute_uv=False)
        except np.linalg.LinAlgError as exc:
            raise SingularChannel(f"effective channel SVD failed: {exc}") from exc
        smax, smin = svals[..., 0], svals[..., -1]
        if (not np.all(np.isfinite(svals)) or np.any(smin <= 0.0)
                or np.any((smax / smin) ** 2 > _COND_LIMIT)):
            raise SingularChannel("effective channel Gram is numerically singular")
        if inv_gram is None:
            inv_gram = np.linalg.inv(gram)
    u = h_herm @ inv_gram
    u_norm2 = np.real(np.diagonal(inv_gram, axis1=-2, axis2=-1)).copy()
    f = u / np.sqrt(u_norm2)[..., None, :]
    return u, f, u_norm2


def mmse_precoder(h_eff: np.ndarray, alpha: float):
    """Regularised precoder u = H^H (H H^H + alpha I)^-1; well-defined for
    alpha > 0.  u_norm2 holds the true squared column norms."""
    if alpha <= 0.0:
        raise ValidationError("regulariser must be positive")
    k = h_eff.shape[0]
    gram = h_eff @ h_eff.conj().T
    inv_reg = np.linalg.inv(gram + alpha * np.eye(k))
    u = h_eff.conj().T @ inv_reg
    u_norm2 = np.real(np.einsum("ij,ij->j", np.conj(u), u)).copy()
    f = u / np.sqrt(np.maximum(u_norm2, 1e-300))[None, :]
    return u, f, u_norm2


def instantaneous_user_rate(p: float, sigma2: float, u_norm2):
    """Interference-free rate log2(1 + p / (sigma2 * u_norm2)); arrays of
    squared precoder norms give arrays of rates."""
    return np.log2(1.0 + p / (sigma2 * u_norm2))


@dataclass
class RateSummary:
    """Monte-Carlo rate estimate with per-entry standard errors."""

    per_user_per_subcarrier: np.ndarray
    sum_rate: float
    trials: int
    std_error: np.ndarray


def monte_carlo_sum_rate(cfg: SystemConfig, geom: CellGeometry, pose: RisPose,
                         users: list[UserLocation], theta: np.ndarray, trials: int,
                         rng: np.random.Generator, los: LosGeometry = None) -> RateSummary:
    """Empirical mean of the per-user, per-subcarrier ZF rate over channel
    draws, with equal power per stream.

    Singular draws are skipped and counted; more than 1% skips is an error so
    the estimator cannot silently degrade.  The draws come from `rng` one at
    a time, through sample_effective_channel, which never forms G.
    """
    if trials < 1:
        raise ValidationError("need at least one trial")
    if los is None:
        los = precompute_los(cfg, geom, pose, users)
    p = cfg.power_per_stream
    samples = []
    skipped = 0
    for _ in range(trials):
        h_eff = sample_effective_channel(cfg, los, theta, [rng])[0]
        try:
            _, _, u_norm2 = zf_precoder(h_eff)
        except SingularChannel:
            skipped += 1
            continue
        samples.append(instantaneous_user_rate(p, cfg.sigma2, u_norm2).T)
    if skipped > 0.01 * trials:
        raise SingularChannel(f"{skipped}/{trials} singular draws")
    stack = np.stack(samples)
    n = stack.shape[0]
    # Compensated per-entry summation keeps the aggregate reproducible to
    # 1e-9 regardless of how trials would be partitioned across workers.
    mean = np.apply_along_axis(math.fsum, 0, stack) / n
    std_error = stack.std(axis=0, ddof=1) / math.sqrt(n) if n > 1 else np.zeros_like(mean)
    return RateSummary(
        per_user_per_subcarrier=mean,
        sum_rate=math.fsum(mean.ravel()),
        trials=n,
        std_error=std_error,
    )


# Channel draws per block of the empirical covariance oracle.
_ORACLE_BLOCK = 64


def empirical_covariance_diagonal(cfg: SystemConfig, los: LosGeometry, theta: np.ndarray,
                                  draws: int, rng: np.random.Generator) -> np.ndarray:
    """Monte-Carlo estimate of the effective-channel covariance diagonal at
    the first subcarrier, (K,): each user's squared row norm averaged over
    `draws` effective-channel draws from `rng` in turn, made by
    sample_effective_channel on that subcarrier alone (see
    LosGeometry.subcarrier), _ORACLE_BLOCK at a time.  The oracle for
    covariance_entry(k, k, 0, ...)."""
    if draws < 1:
        raise ValidationError(f"need at least one draw, got {draws}")
    view = los.subcarrier(0)
    acc, rngs = np.zeros(los.d_bar.shape[0]), [rng] * _ORACLE_BLOCK
    for start in range(0, draws, _ORACLE_BLOCK):
        h_eff = sample_effective_channel(cfg, view, theta, rngs[:draws - start])
        acc += np.sum(np.abs(h_eff[:, 0]) ** 2, axis=(0, 2))
    return acc / draws


def rician_ratios(cfg: SystemConfig):
    """(cascade scattered weight, cascade deterministic weight, direct
    deterministic weight) in the covariance formulas; los_only takes the
    infinite-Rician limit."""
    if cfg.los_only:
        return 0.0, 1.0, 1.0
    denom = (cfg.k0 + 1.0) * (cfg.k2 + 1.0)
    return (cfg.k0 + cfg.k2 + 1.0) / denom, cfg.k0 * cfg.k2 / denom, cfg.k1 / (cfg.k1 + 1.0)


def composite_gain(beta1, beta0, beta2, cfg: SystemConfig):
    """Composite user gain kappa = beta1 (1 + r_d/Nt) + r_n beta0 beta2, the
    direct power the ZF rate sees plus the scattered cascade power, which
    an unserved user's zero beta2 removes; arrays broadcast."""
    r_nlos, _, r_direct = rician_ratios(cfg)
    return beta1 * (1.0 + r_direct / cfg.nt) + r_nlos * beta0 * beta2


def _cascade_amplitudes(los: LosGeometry, theta: np.ndarray) -> np.ndarray:
    """Deterministic cascade amplitudes xi[m, k] = sqrt(beta0 beta2_k)
    h_bar_k^H Phi^H a_ris for every subcarrier of `los` and every user (zero
    for unserved users)."""
    c = np.einsum("kmr,r,mr->mk", np.conj(los.h_bar), np.conj(theta), los.a_ris)
    return c * np.sqrt(los.beta0 * los.beta2)[None, :]


def _covariances(cfg: SystemConfig, los: LosGeometry, xi: np.ndarray) -> np.ndarray:
    """(M, K, K) effective-channel covariances: the direct-link gain plus the
    scattered cascade power on the diagonal, and the deterministic cascade
    coupling r_los xi_i conj(xi_j) everywhere (Hermitian by construction)."""
    r_nlos, r_los, _ = rician_ratios(cfg)
    diagonal = los.beta1 + r_nlos * los.beta0 * los.beta2
    return np.eye(len(diagonal)) * diagonal + r_los * (xi[:, :, None] * np.conj(xi[:, None, :]))


def covariance_entry(i: int, j: int, m: int, cfg: SystemConfig, los: LosGeometry,
                     theta: np.ndarray) -> complex:
    """(i, j) entry of the effective-channel covariance at subcarrier m.

    Diagonal entries combine the direct-link gain, the scattered cascade
    power, and the deterministic cascade power through the panel coupling;
    off-diagonal entries carry only the deterministic cross coupling.
    """
    return complex(covariance_matrix(m, cfg, los, theta)[i, j])


def covariance_matrix(m: int, cfg: SystemConfig, los: LosGeometry,
                      theta: np.ndarray) -> np.ndarray:
    """Dense K x K covariance at subcarrier m (Hermitian by construction)."""
    return _covariances(cfg, los, _cascade_amplitudes(los.subcarrier(m), theta))[0]


@dataclass
class ClosedFormContext:
    """Scalars feeding the analytic rate formulas for a fixed layout/phases.

    kappa: per-user composite gain (K,); tau: deterministic-cascade weight
    over the antenna count; xi: (M, K) complex cascade amplitudes; pbar:
    per-stream power.
    """

    kappa: np.ndarray
    tau: float
    xi: np.ndarray
    pbar: float


def build_closed_form_context(cfg: SystemConfig, geom: CellGeometry, pose: RisPose,
                              users: list[UserLocation], theta: np.ndarray,
                              los: LosGeometry = None) -> ClosedFormContext:
    if los is None:
        los = precompute_los(cfg, geom, pose, users)
    _, r_los, _ = rician_ratios(cfg)
    kappa = composite_gain(los.beta1, los.beta0, los.beta2, cfg)
    if np.any(kappa <= 0.0):
        raise ValidationError("composite user gains must be positive")
    return ClosedFormContext(kappa=kappa, tau=r_los / cfg.nt, xi=_cascade_amplitudes(los, theta),
                             pbar=cfg.power_per_stream)


def sigma_hat_inv_entry(k: int, m: int, ctx: ClosedFormContext) -> float:
    """(k, k) entry of the inverted Wishart scale matrix via the
    Sherman-Morrison identity (linear in tau)."""
    kap = ctx.kappa
    xi2 = np.abs(ctx.xi[m]) ** 2
    denom = 1.0 + ctx.tau * float(np.sum(xi2 / kap))
    return 1.0 / kap[k] - (ctx.tau * xi2[k] / kap[k] ** 2) / denom


def rank_one_inverse_error(rng: np.random.Generator) -> float:
    """Oracle for sigma_hat_inv_entry: the largest absolute gap between its
    Sherman-Morrison diagonal and the diagonal of a dense inverse of
    diag(kappa) + tau xi xi^H, over 100 random contexts of 2-5 users from
    `rng`."""
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(2, 6))
        ctx = ClosedFormContext(
            kappa=rng.uniform(0.5, 2.0, k),
            tau=float(rng.uniform(0.0, 0.5)),
            xi=(rng.normal(size=(1, k)) + 1j * rng.normal(size=(1, k))),
            pbar=1.0,
        )
        dense = np.linalg.inv(np.diag(ctx.kappa)
                              + ctx.tau * np.outer(ctx.xi[0], np.conj(ctx.xi[0])))
        for idx in range(k):
            worst = max(worst, abs(sigma_hat_inv_entry(idx, 0, ctx) - dense[idx, idx].real))
    return worst


def snr_scale(cfg: SystemConfig, pbar: float) -> float:
    """Per-stream SNR factor exp(psi(Nt-K+1)) / (Nt * sigma2) times power."""
    return pbar * math.exp(digamma(cfg.nt - cfg.k + 1)) / (cfg.nt * cfg.sigma2)


def approx_rate(k: int, m: int, ctx: ClosedFormContext, cfg: SystemConfig) -> float:
    """Closed-form average user rate at subcarrier m, including the
    deterministic-cascade boost: the SNR factor over the (k, k) entry of the
    inverted Wishart scale matrix."""
    return math.log2(1.0 + snr_scale(cfg, ctx.pbar) / sigma_hat_inv_entry(k, m, ctx))


def lower_bound_rate(k: int, ctx: ClosedFormContext, cfg: SystemConfig) -> float:
    """Cascade-blind lower bound of the closed-form rate; identical across
    subcarriers under the equal power split."""
    return math.log2(1.0 + snr_scale(cfg, ctx.pbar) * ctx.kappa[k])


def mmse_closed_form_rate(k: int, m: int, ctx: ClosedFormContext, cfg: SystemConfig,
                          alpha: float) -> float:
    """Closed-form average rate under the regularised precoder.

    Builds the expected inverted Gram from the Wishart scale matrix, then
    inverts the regularised sum through a second Sherman-Morrison step; only
    K-sized vector algebra is involved.
    """
    if alpha <= 0.0:
        raise ValidationError("regulariser must be positive")
    nt, k_users = cfg.nt, cfg.k
    kap = ctx.kappa
    xi = ctx.xi[m]
    xi_hat = xi / kap
    s = 1.0 + ctx.tau * float(np.sum(np.abs(xi) ** 2 / kap))
    b = -ctx.tau / s

    # Expected inverted Gram: diagonal plus rank one, scaled by Nt/(Nt-K).
    scale = nt / (nt - k_users)
    e_winv = scale * (np.diag(1.0 / kap) + b * np.outer(xi_hat, np.conj(xi_hat)))

    lam = scale / kap + 1.0 / alpha
    rho = scale * b
    denom = 1.0 + rho * float(np.sum(np.abs(xi_hat) ** 2 / lam))
    zinv_row = np.zeros(k_users, dtype=complex)
    zinv_row[k] = 1.0 / lam[k]
    zinv_row -= rho * (xi_hat[k] / lam[k]) * np.conj(xi_hat) / lam / denom

    varpi = float(np.real(zinv_row @ e_winv[:, k])) / alpha
    return math.log2(1.0 + ctx.pbar / (cfg.sigma2 * varpi))
