"""Two-layer SGD, discrete dimension-free dynamics, kernels, and risk.

The particle network is f(x; Theta) = (1/M) sum_j [a_j sigma(<w_j, x> + b_j) + c_j];
batch SGD updates every theta_j with per-block step sizes and l2 decay of a and w.

The dimension-free (DF) state tracks weighted particles (a, b, u, c, s) living
on the P support coordinates plus a Gaussian residual s*G; each step applies
the exact five-component recursion with expectations enumerated over the
hypercube support law and Gauss-Hermite quadrature for G.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .junta import JuntaProblem, PlantedInstance
from .losses import LossSpec, squared
from .setsystem import greedy_closure


class DivergenceError(RuntimeError):
    def __init__(self, step: int, what: str = "update"):
        super().__init__(f"non-finite {what} at step {step}")
        self.step = step
        self.what = what


# ---------------------------------------------------------------------------
# Activations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Activation:
    """sigma(x) = A tanh(g x), or (1 + x)^L when `degree` L is set.

    `value(x)` writes sigma(x) into x, and `value_and_deriv(x, out)` writes
    sigma(x) into x and sigma'(x) from the same pass into `out` (an array of
    x's shape, allocated when None); x must be a float array the caller owns.
    sigma is f(x) bit for bit; sigma' is df(x) bit for bit for (1 + x)^L, and
    A g (1 - tanh^2) against df's A g / cosh^2 for tanh. f and df are the
    reference formulas."""

    name: str
    amplitude: float = 1.0
    gain: float = 1.0
    degree: int | None = None

    def __repr__(self):
        return f"Activation({self.name!r})"

    def f(self, x):
        if self.degree is not None:
            return (1.0 + x) ** self.degree
        return self.amplitude * np.tanh(self.gain * x)

    def df(self, x):
        if self.degree is not None:
            return self.degree * (1.0 + x) ** (self.degree - 1)
        return self.amplitude * self.gain / np.cosh(self.gain * x) ** 2

    def _inner(self, x: np.ndarray) -> np.ndarray:
        """1 + x, or tanh(g x), into x."""
        if self.degree is not None:
            return np.add(x, 1.0, out=x)
        if self.gain != 1.0:
            x *= self.gain
        return np.tanh(x, out=x)

    def _outer(self, t: np.ndarray) -> np.ndarray:
        """sigma from the inner value t, into t."""
        if self.degree is not None:
            return np.power(t, self.degree, out=t)
        if self.amplitude != 1.0:
            t *= self.amplitude
        return t

    def value(self, x: np.ndarray) -> np.ndarray:
        return self._outer(self._inner(x))

    def value_and_deriv(self, x: np.ndarray, out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        t = self._inner(x)
        if self.degree is not None:
            sp = np.power(t, self.degree - 1, out=out)
            sp *= self.degree
        else:
            sp = np.square(t, out=out)
            np.subtract(1.0, sp, out=sp)
            if self.amplitude * self.gain != 1.0:
                sp *= self.amplitude * self.gain
        return self._outer(t), sp


def poly_activation(degree: int) -> Activation:
    """sigma(x) = (1+x)^L."""
    if isinstance(degree, bool) or not isinstance(degree, numbers.Integral):
        raise TypeError(f"degree must be an integer, got {degree!r}")
    if degree < 1:
        raise ValueError("degree must be >= 1")
    return Activation(f"poly1p^{int(degree)}", degree=int(degree))


def make_activation(spec: str) -> Activation:
    """The activation of a spec: "tanh", "tanh:A[:g]" for A tanh(g x) (amplitude
    A sets the output range, gain g the slope), or "poly:L" for (1 + x)^L."""
    if spec == "tanh":
        return Activation("tanh")
    if isinstance(spec, str) and spec.startswith("poly:"):
        return poly_activation(int(spec.split(":", 1)[1]))
    if isinstance(spec, str) and spec.startswith("tanh:"):
        params = [float(v) for v in spec.split(":")[1:]]
        if len(params) <= 2 and np.isfinite(params).all():
            a, g = (*params, 1.0)[:2]
            return Activation(f"tanh[{a}x{g}]", a, g)
    raise ValueError(f"unknown activation spec {spec!r}")


# ---------------------------------------------------------------------------
# Training configuration
# ---------------------------------------------------------------------------


@dataclass
class TrainConfig:
    """Step sizes, per-block schedules, regularization, batch size.

    eta is the base step size; each block uses eta * rate_<block>, and the
    w-block additionally multiplies per-coordinate kappa factors (in [1/2, 3/2]).
    lam_a and lam_w are the l2 decay rates of a and of w (u and s in the DF
    recursion); b and c are not decayed.
    """

    loss: LossSpec
    eta: float
    batch: int = 1
    rate_a: float = 1.0
    rate_w: float = 1.0
    rate_b: float = 1.0
    rate_c: float = 1.0
    kappa: np.ndarray | None = None
    lam_a: float = 0.0
    lam_w: float = 0.0

    def __post_init__(self):
        if isinstance(self.batch, bool) or not isinstance(self.batch, numbers.Integral):
            raise TypeError(f"batch must be an integer, got {self.batch!r}")
        # each test is written so that NaN fails it
        if not (np.isfinite(self.eta) and self.batch >= 1):
            raise ValueError(f"eta must be finite and batch >= 1, got eta={self.eta!r}, batch={self.batch!r}")
        if not np.isfinite([self.lam_a, self.lam_w]).all():
            raise ValueError("the decay rates lam_a and lam_w must be finite")
        if self.kappa is not None:
            self.kappa = np.asarray(self.kappa, dtype=float)
            if self.kappa.ndim != 1:
                raise ValueError(f"kappa must be one-dimensional, got shape {self.kappa.shape}")
            if not np.all((self.kappa >= 0.5 - 1e-12) & (self.kappa <= 1.5 + 1e-12)):
                raise ValueError("kappa entries must lie in [1/2, 3/2]")

    def kappa_for(self, width: int) -> np.ndarray | float:
        """The per-coordinate kappa factors, or 1.0 when none are set."""
        if self.kappa is None:
            return 1.0
        if self.kappa.size != width:
            raise ValueError(f"kappa has length {self.kappa.size}, expected {width}")
        return self.kappa


# ---------------------------------------------------------------------------
# Particle ensembles and batch SGD
# ---------------------------------------------------------------------------


# entries of one row block of hidden pre-activations in ParticleEnsemble.forward:
# 2 MB, which bounds forward's work memory at any number of rows. That is a
# whole 2 MB per-core L2 cache, so the block is not sized to stay in cache; the
# value is kept because another row split can move forward's last bits
FORWARD_BLOCK_ENTRIES = 1 << 18


@dataclass
class StepBuffers:
    """The (n, M) and (M, d) work arrays of one batch-SGD step at batch size n:
    hidden pre-activations (then sigma of them), sigma' and the first-layer
    gradient."""

    z: np.ndarray
    sp: np.ndarray
    grad_w: np.ndarray

    @classmethod
    def empty(cls, n: int, m: int, d: int) -> "StepBuffers":
        return cls(np.empty((n, m)), np.empty((n, m)), np.empty((m, d)))


@dataclass
class ParticleEnsemble:
    """Finite-width parameters theta_j = (a_j, w_j, b_j, c_j); one training run
    owns and mutates one ensemble, and lends it its step buffers for the run
    (`run_sgd`)."""

    a: np.ndarray
    w: np.ndarray  # (M, d)
    b: np.ndarray
    c: np.ndarray
    activation: Activation
    # on the ensemble, so that sgd_step keeps its (ens, x, y, cfg) signature
    step_buffers: StepBuffers | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def m(self) -> int:
        return self.a.size

    @property
    def d(self) -> int:
        return self.w.shape[1]

    def forward(self, x: np.ndarray, values: np.ndarray | None = None) -> np.ndarray:
        """f(x) for a batch of inputs x of shape (n, d), evaluated in row blocks
        of at most FORWARD_BLOCK_ENTRIES hidden pre-activations; one block
        buffer holds the pre-activations and then sigma of them.

        With `values`, x holds symbol indices into it (`Sampler.draw_symbols`),
        and each row block is expanded into one reused float block: the
        blocks, and so the bits, are those of forward on the float inputs."""
        n = x.shape[0]
        out = np.empty(n)
        rows = max(1, FORWARD_BLOCK_ENTRIES // self.m)
        block = np.empty((min(rows, n), self.m))
        inputs = None if values is None else np.empty((min(rows, n), self.d))
        c_sum = self.c.sum()
        for lo in range(0, n, rows):
            k = min(rows, n - lo)
            xb = x[lo : lo + k]
            if values is not None:
                # mode="wrap" writes straight into out; "raise" would buffer
                xb = np.take(values, xb, out=inputs[:k], mode="wrap")
            z = np.matmul(xb, self.w.T, out=block[:k])
            z += self.b
            out[lo : lo + k] = (self.activation.value(z) @ self.a + c_sum) / self.m
        return out


def init_ensemble(
    d: int,
    m: int,
    activation: Activation,
    seed: int,
    c_bar: float = 0.0,
    mu_w: str = "zero",
    mu_b: str = "uniform",
) -> ParticleEnsemble:
    """(a0, b0, sqrt(d) w0, c0) ~ mu_a x mu_b x mu_w^d x delta_{c_bar} with
    mu_a = Unif[-1, 1]."""
    if not m >= 1:
        raise ValueError(f"width m must be >= 1, got {m!r}")
    if not math.isfinite(c_bar):
        raise ValueError(f"c_bar must be finite, got {c_bar!r}")
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1.0, 1.0, m)
    if mu_b == "uniform":
        b = rng.uniform(-1.0, 1.0, m)
    elif mu_b == "zero":
        b = np.zeros(m)
    else:
        raise ValueError(f"unknown mu_b {mu_b!r}")
    if mu_w == "zero":
        w = np.zeros((m, d))
    elif mu_w == "normal":
        w = rng.standard_normal((m, d)) * (1.0 / np.sqrt(d))
    else:
        raise ValueError(f"unknown mu_w {mu_w!r}")
    c = np.full(m, float(c_bar))
    return ParticleEnsemble(a, w, b, c, activation)


def sgd_step(ens: ParticleEnsemble, x: np.ndarray, y: np.ndarray, cfg: TrainConfig) -> ParticleEnsemble:
    """One batch-SGD update: theta_j <- theta_j - H [ (1/b) sum_i l'(f(x_i), y_i)
    grad_theta sigma_*(x_i; theta_j) + lambda theta_j ] (lambda = 0 for b and
    c), f evaluated at the pre-step parameters for the whole batch. w is
    updated in place.

    The step's (n, M) and (M, d) arrays are written into `ens.step_buffers`
    when the ensemble holds them (for this batch size), and allocated
    otherwise."""
    if x.shape[0] == 0:
        raise ValueError("batch must be non-empty")
    n = x.shape[0]
    buf = ens.step_buffers
    z = np.matmul(x, ens.w.T, out=None if buf is None else buf.z)  # (n, M)
    z += ens.b
    s, gsp = ens.activation.value_and_deriv(z, None if buf is None else buf.sp)
    f = (s @ ens.a + ens.c.sum()) / ens.m
    if not np.all(np.isfinite(f)):
        raise DivergenceError(-1, "network value")
    g = cfg.loss.deriv(f, np.asarray(y, dtype=float)) / n  # (n,)

    grad_a = g @ s
    gsp *= ens.a
    gsp *= g[:, None]  # l'/n * a_j sigma'(z_ij), (n, M)
    grad_b = gsp.sum(axis=0)
    # at n = 1 each entry is one product, exactly as the k = 1 matmul gives it;
    # at M = 512, d = 100 einsum takes 44-48 us, np.multiply.outer 65-78 us and
    # the matmul 103-110 us (best of 7 timeit repeats, 2-core VM, 2 BLAS threads)
    out = None if buf is None else buf.grad_w
    grad_w = np.einsum("i,j->ij", gsp[0], x[0], out=out) if n == 1 else np.matmul(gsp.T, x, out=out)  # (M, d)
    grad_c = g.sum()

    eta = cfg.eta
    if cfg.lam_w:
        grad_w += cfg.lam_w * ens.w
    grad_w *= eta * cfg.rate_w * cfg.kappa_for(ens.d)
    ens.w -= grad_w
    ens.a -= eta * cfg.rate_a * (grad_a + cfg.lam_a * ens.a)
    ens.b -= eta * cfg.rate_b * grad_b
    ens.c -= eta * cfg.rate_c * grad_c
    # min and max propagate nan and hold any inf, and need no (M, d) temporary
    if not all(np.isfinite(v.min()) and np.isfinite(v.max()) for v in (ens.a, ens.w, ens.b, ens.c)):
        raise DivergenceError(-1)
    return ens


# ---------------------------------------------------------------------------
# Dimension-free state and recursion
# ---------------------------------------------------------------------------


@dataclass
class DFState:
    """Weighted dimension-free particles (a, b, u, c, s); weights sum to 1."""

    a: np.ndarray
    b: np.ndarray
    u: np.ndarray  # (N, P)
    c: np.ndarray
    s: np.ndarray
    weights: np.ndarray
    activation: Activation
    k: int = 0

    @property
    def n(self) -> int:
        return self.a.size

    @property
    def p(self) -> int:
        return self.u.shape[1]


@functools.lru_cache(maxsize=16)
def gauss_hermite(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights for E_{G ~ N(0,1)}[f(G)], read-only and computed once per
    order (hermgauss solves an eigenproblem)."""
    nodes, wts = np.polynomial.hermite.hermgauss(n)
    nodes, wts = nodes * np.sqrt(2.0), wts / np.sqrt(np.pi)
    nodes.flags.writeable = wts.flags.writeable = False
    return nodes, wts


def gauss_legendre_unit(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights for E_{A ~ Unif[-1,1]}[f(A)]."""
    nodes, wts = np.polynomial.legendre.leggauss(n)
    return nodes, wts / 2.0


def hypercube_tables(problem: JuntaProblem) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(Z, row weights, cond, labels) for a uniform-hypercube-backed problem."""
    if not problem.marginal.is_uniform_hypercube():
        raise ValueError("dimension-free dynamics needs X = {+1,-1} uniform")
    zmat = np.column_stack([problem.coord_values(i) for i in range(1, problem.p + 1)])
    return zmat, problem.row_weights, problem.cond, problem.labels_numeric()


def init_df_state(
    p: int,
    activation: Activation,
    c_bar: float = 0.0,
    a_order: int = 32,
    b_order: int = 16,
    mu_b: str = "uniform",
    s0: float = 0.0,
) -> DFState:
    """Quadrature representation of rho_0 = mu_a x mu_b x delta_0 x delta_c x delta_s0."""
    if not (math.isfinite(c_bar) and math.isfinite(s0)):
        raise ValueError(f"c_bar and s0 must be finite, got c_bar={c_bar!r}, s0={s0!r}")
    a_nodes, a_wts = gauss_legendre_unit(a_order)
    if mu_b == "uniform":
        b_nodes, b_wts = gauss_legendre_unit(b_order)
    elif mu_b == "zero":
        b_nodes, b_wts = np.zeros(1), np.ones(1)
    else:
        raise ValueError(f"unknown mu_b {mu_b!r}")
    aa, bb = np.meshgrid(a_nodes, b_nodes, indexing="ij")
    ww = np.outer(a_wts, b_wts).reshape(-1)
    n = ww.size
    return DFState(
        a=aa.reshape(-1).copy(),
        b=bb.reshape(-1).copy(),
        u=np.zeros((n, p)),
        c=np.full(n, float(c_bar)),
        s=np.full(n, float(s0)),
        weights=ww / ww.sum(),
        activation=activation,
    )


class _DFForward(NamedTuple):
    """One DF state's forward pass: the features E_G[sigma(<u, z> + s G + b)],
    E_G[sigma'] and E_G[G sigma'] (None at s = 0) per particle x support
    point, and the network value per point."""

    sig: np.ndarray
    sigp: np.ndarray
    sigp_g: np.ndarray | None
    f: np.ndarray


def _df_forward(state: DFState, zmat: np.ndarray, gh_order: int, work=None) -> _DFForward:
    """The only evaluation of a DF state: df_step, df_risk, kernel and the
    layer-wise step size all read it. At s > 0, `work` may hold two
    (N, R, gh_order) arrays for the quadrature pre-activations and sigma'."""
    act = state.activation
    pre = state.u @ zmat.T + state.b[:, None]  # (N, R)
    if np.all(state.s == 0.0):
        sig, sigp = act.value_and_deriv(pre)
        sigp_g = None
    else:
        nodes, wts = gauss_hermite(gh_order)
        pre3, sigp_full = (None, None) if work is None else work
        pre3 = np.add(pre[:, :, None], state.s[:, None, None] * nodes, out=pre3)
        sig3, sigp_full = act.value_and_deriv(pre3, sigp_full)
        sig = sig3 @ wts
        sigp = sigp_full @ wts
        sigp_g = sigp_full @ (wts * nodes)
    f = (state.weights * state.a) @ sig + float(state.weights @ state.c)  # (R,)
    return _DFForward(sig, sigp, sigp_g, f)


def _decayed(grad, lam: float, v):
    """grad + lam * v, with no work at lam = 0."""
    return grad + lam * v if lam else grad


def df_step(
    state: DFState,
    problem: JuntaProblem,
    cfg: TrainConfig,
    gh_order: int = 20,
    _tables=None,
    _work=None,
    _forward: _DFForward | None = None,
) -> DFState:
    """One step of the discrete dimension-free recursion (exact expectations).
    A divergence is numbered state.k + 1, the step this call takes.

    run_df passes its tables, its s > 0 work arrays and, when it has already
    computed it for a risk record, the state's forward pass."""
    zmat, wz, cond, labels = hypercube_tables(problem) if _tables is None else _tables
    sig, sigp, sigp_g, f = _df_forward(state, zmat, gh_order, _work) if _forward is None else _forward
    if not np.all(np.isfinite(f)):
        raise DivergenceError(state.k + 1, "network value")
    ellp = cfg.loss.deriv(f[:, None], labels[None, :])  # (R, ny)
    gz = wz * np.einsum("ry,ry->r", cond, ellp)  # weighted E_{y|z}[l'] per row

    grad_a = sig @ gz
    asp = state.a[:, None] * sigp
    grad_b = asp @ gz
    grad_u = (asp * gz) @ zmat
    grad_c = float(gz.sum())
    grad_s = (state.a[:, None] * sigp_g) @ gz if sigp_g is not None else np.zeros(state.n)

    eta = cfg.eta
    kap = cfg.kappa_for(state.p)
    state.a = state.a - eta * cfg.rate_a * _decayed(grad_a, cfg.lam_a, state.a)
    state.u = state.u - (eta * cfg.rate_w * kap) * _decayed(grad_u, cfg.lam_w, state.u)
    state.s = state.s - eta * cfg.rate_w * _decayed(grad_s, cfg.lam_w, state.s)
    state.b = state.b - eta * cfg.rate_b * grad_b
    state.c = state.c - eta * cfg.rate_c * grad_c
    state.k += 1
    # one scan over every parameter
    if not np.isfinite(np.concatenate((state.u, state.a, state.b, state.c, state.s), axis=None)).all():
        raise DivergenceError(state.k)
    return state


@dataclass
class DFRun:
    state: DFState
    u_max: np.ndarray  # (steps+1, P) max over particles of |u_i| per step
    history: list = field(default_factory=list)


def run_df(
    problem: JuntaProblem,
    cfg: TrainConfig,
    steps: int,
    state: DFState,
    gh_order: int = 20,
    risk_every: int | None = None,
    risk_losses: Sequence[tuple[str, LossSpec]] = (),
) -> DFRun:
    """DF training for `steps` steps with the exact risk under each of
    `risk_losses` every `risk_every` steps and at the last. A recorded state's
    forward pass serves both its risks and the step that follows; at s > 0
    the run owns the quadrature work arrays of all its steps."""
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps!r}")
    tables = hypercube_tables(problem)
    u_max = np.empty((steps + 1, state.p))
    u_max[0] = np.abs(state.u).max(axis=0) if state.n else 0.0
    history = []
    work = None
    if not np.all(state.s == 0.0):
        shape = (state.n, tables[0].shape[0], gh_order)
        work = (np.empty(shape), np.empty(shape))

    def record(step):
        if risk_every is None or (step % risk_every and step != steps):
            return None
        forward = _df_forward(state, tables[0], gh_order, work)
        row = {"step": step, "t": step * cfg.eta}
        for name, loss in risk_losses:
            row[name] = _table_risk(forward.f, tables, loss)
        for i in range(state.p):
            row[f"umax_{i + 1}"] = float(u_max[step, i])
        history.append(row)
        return forward

    forward = record(0)
    for step in range(1, steps + 1):
        df_step(state, problem, cfg, gh_order=gh_order, _tables=tables, _work=work, _forward=forward)
        u_max[step] = np.abs(state.u).max(axis=0)
        forward = record(step)
    return DFRun(state, u_max, history)


# ---------------------------------------------------------------------------
# Support alignment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AlignmentReport:
    """Per-coordinate first step where max_particles |u_i| clears `threshold`;
    None marks FROZEN. u_star_mask is the leap-1-reachable set of the DLQ
    system, whose complement must stay frozen with |u_i| at roundoff scale."""

    first_activation: tuple
    max_abs_u: tuple
    u_star_mask: int

    def frozen_coords(self) -> tuple[int, ...]:
        return tuple(i + 1 for i, step in enumerate(self.first_activation) if step is None)


def support_alignment(u_history: np.ndarray, dlq_report, threshold: float = 0.01) -> AlignmentReport:
    u_history = np.asarray(u_history)
    p = u_history.shape[1]
    u_star = greedy_closure(dlq_report.system, 1, 0)
    first = []
    for i in range(p):
        hits = np.nonzero(u_history[:, i] > threshold)[0]
        first.append(int(hits[0]) if hits.size else None)
    return AlignmentReport(tuple(first), tuple(float(v) for v in u_history.max(axis=0)), u_star)


# ---------------------------------------------------------------------------
# Kernels and smallest eigenvalue
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KernelReport:
    matrix: np.ndarray
    lambda_min: float
    # n * eps * ||matrix||_2: how far the computed lambda_min may sit above
    # the true one, so lambda_min - margin > t certifies lambda_min > t
    margin: float


def _eigvalsh(mat: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a symmetric matrix by `np.linalg.eigvalsh`,
    each within a backward error of about n * eps * ||mat||_2 of the true
    value, on either side; all nan (nothing certified) when an entry is not
    finite."""
    mat = np.asarray(mat, dtype=float)
    if not np.all(np.isfinite(mat)):
        return np.full(mat.shape[0], np.nan)
    return np.linalg.eigvalsh(mat)


def smallest_eigenvalue(mat: np.ndarray) -> float:
    """Smallest eigenvalue of a symmetric matrix (nan if an entry is not finite)."""
    return float(_eigvalsh(mat)[0])


def kernel(state: DFState, problem: JuntaProblem, gh_order: int = 20) -> KernelReport:
    """Second-layer Gram kernel K(z, z') = E_a[phi_a(z) phi_a(z')] on the 2^P
    support points of `problem`, with its smallest eigenvalue; the features
    phi are those of the DF state's particles, weighted by its weights."""
    feats = _df_forward(state, hypercube_tables(problem)[0], gh_order).sig
    mat = (feats * state.weights[:, None]).T @ feats
    mat = (mat + mat.T) / 2.0
    eig = _eigvalsh(mat)
    return KernelReport(mat, float(eig[0]), len(eig) * np.finfo(float).eps * float(np.max(np.abs(eig))))


# ---------------------------------------------------------------------------
# Risk functionals
# ---------------------------------------------------------------------------


def df_risk(state: DFState, problem: JuntaProblem, loss: LossSpec, gh_order: int = 20) -> float:
    """Exact risk of a dimension-free model (depends on x only through z)."""
    tables = hypercube_tables(problem)
    return _table_risk(_df_forward(state, tables[0], gh_order).f, tables, loss)


def _table_risk(f: np.ndarray, tables, loss: LossSpec) -> float:
    """E[loss(f(z), y)] for network values f on the support points."""
    _, wz, cond, labels = tables
    lv = loss.value(f[:, None], labels[None, :])
    return float(wz @ np.einsum("ry,ry->r", cond, lv))


def label_averaged_risk(f: np.ndarray, cond: np.ndarray, labels: np.ndarray, loss: LossSpec) -> tuple[float, float]:
    """Mean over samples of E_{y|z}[loss(f, y)], with the label average taken
    exactly from the samples' cond rows, and its standard error."""
    per_sample = np.einsum("ny,ny->n", cond, loss.value(f[:, None], labels[None, :]))
    return float(per_sample.mean()), float(per_sample.std(ddof=1) / np.sqrt(per_sample.size))


# points of bayes_risk's grid over u, before the golden-section refinement
BAYES_GRID = 512


def bayes_risk(problem: JuntaProblem, loss: LossSpec) -> tuple[float, np.ndarray]:
    """inf_f E[l(f(z), y)] with the per-z minimization done on a grid plus
    golden-section refinement to a bracket of 1e-10; returns (risk, per-row
    minimizers)."""
    grid = BAYES_GRID
    labels = problem.labels_numeric()
    span = float(labels.max() - labels.min()) if labels.size > 1 else 1.0
    lo = float(labels.min()) - 0.5 * span - 1.0
    hi = float(labels.max()) + 0.5 * span + 1.0
    us = np.linspace(lo, hi, grid)
    lv = loss.value(us[:, None], labels[None, :])  # (grid, ny)
    objective = lv @ problem.cond.T  # (grid, rows)
    best = np.argmin(objective, axis=0)

    gr = (np.sqrt(5.0) - 1.0) / 2.0
    minimizers = np.empty(problem.n_rows)
    values = np.empty(problem.n_rows)
    for r in range(problem.n_rows):
        row = problem.cond[r]

        def g(u):
            return float(row @ loss.value(u, labels))

        a = us[max(best[r] - 1, 0)]
        b = us[min(best[r] + 1, grid - 1)]
        x1 = b - gr * (b - a)
        x2 = a + gr * (b - a)
        g1, g2 = g(x1), g(x2)
        while b - a > 1e-10:
            if g1 <= g2:
                b, x2, g2 = x2, x1, g1
                x1 = b - gr * (b - a)
                g1 = g(x1)
            else:
                a, x1, g1 = x1, x2, g2
                x2 = a + gr * (b - a)
                g2 = g(x2)
        u_star = (a + b) / 2.0
        minimizers[r] = u_star
        values[r] = g(u_star)
    return float(problem.row_weights @ values), minimizers


# ---------------------------------------------------------------------------
# SGD driver
# ---------------------------------------------------------------------------


@dataclass
class SgdRun:
    ensemble: ParticleEnsemble
    history: list


def run_sgd(
    instance: PlantedInstance,
    ens: ParticleEnsemble,
    cfg: TrainConfig,
    steps: int,
    data_seed: int = 0,
    eval_every: int | None = None,
    test_n: int = 10_000,
    eval_losses: Sequence[tuple[str, LossSpec]] = (("mse", squared()),),
) -> SgdRun:
    """Online/batch SGD with periodic test-risk evaluation on a fixed fresh
    sample, drawn with seed 10^6 (labels averaged exactly). Inputs are
    consumed in the sampler's internal support-first layout, making the whole
    trajectory invariant to ambient coordinate relabeling.

    The test inputs are held as symbols (test_n * d bytes for |X| <= 256),
    and the run lends the ensemble one set of step buffers for its batch
    size, so a step maps no fresh pages."""
    sampler = instance.sampler(data_seed)
    test_sampler = instance.sampler(10**6)
    _, sym_test, rows_test = test_sampler.draw_symbols(test_n)
    problem = instance.problem
    values = problem.marginal.values
    labels = problem.labels_numeric()
    cond_test = problem.cond[rows_test]
    history = []

    def evaluate(step):
        row = {"step": step, "t": step * cfg.eta}
        f = ens.forward(sym_test, values)
        for name, loss in eval_losses:
            row[name], row[f"{name}_se"] = label_averaged_risk(f, cond_test, labels, loss)
        history.append(row)

    evaluate(0)
    ens.step_buffers = StepBuffers.empty(cfg.batch, ens.m, ens.d)
    try:
        for step in range(1, steps + 1):
            y, x, _ = sampler.draw_batch(cfg.batch)
            try:
                sgd_step(ens, x, y, cfg)
            except DivergenceError as exc:
                raise DivergenceError(step, exc.what) from exc
            if eval_every is not None and (step % eval_every == 0 or step == steps):
                evaluate(step)
    finally:
        ens.step_buffers = None
    return SgdRun(ens, history)


# ---------------------------------------------------------------------------
# Layer-wise trainer (first layer, then second layer)
# ---------------------------------------------------------------------------


@dataclass
class LayerwiseResult:
    state: DFState
    kernel_report: KernelReport
    history: list
    eta2: float
    trust_violation: bool


def second_derivative_bound(loss: LossSpec, labels: np.ndarray, u_lo: float, u_hi: float) -> float:
    """Numeric sup of |d/du l'(u, y)| over a grid, with headroom."""
    us = np.linspace(u_lo, u_hi, 2001)
    h = max(1e-6, 1e-6 * (u_hi - u_lo))
    d2 = (loss.deriv(us[:, None] + h, labels[None, :]) - loss.deriv(us[:, None] - h, labels[None, :])) / (2 * h)
    return 1.5 * float(np.max(np.abs(d2))) + 1e-12


def layerwise_train(
    problem: JuntaProblem,
    cfg: TrainConfig,
    L: int,
    k1: int | None = None,
    k2: int = 500,
    c_bar: float = 0.0,
    a_order: int = 64,
    eta2: float | str = "auto",
) -> LayerwiseResult:
    """Two-phase training of the dimension-free model with sigma(x) = (1+x)^L:
    Phase 1 trains only the first-layer weights u with per-coordinate rates
    eta*kappa_i for k1 (= P by default) steps; Phase 2 trains only the second
    layer a for k2 steps of run_df, so a divergence at its step j is numbered
    k1 + j. The returned kernel report certifies lambda_min(K^{k1}) numerically.
    """
    act = poly_activation(L)
    if k1 is None:
        k1 = problem.p
    state = init_df_state(problem.p, act, c_bar=c_bar, a_order=a_order, mu_b="zero")
    tables = hypercube_tables(problem)

    phase1 = TrainConfig(
        loss=cfg.loss, eta=cfg.eta, rate_a=0.0, rate_w=1.0, rate_b=0.0, rate_c=0.0,
        kappa=cfg.kappa, lam_w=cfg.lam_w,
    )
    trust_violation = False
    for step in range(1, k1 + 1):
        df_step(state, problem, phase1, _tables=tables)
        if np.abs(state.u).sum(axis=1).max() > 0.5:
            trust_violation = True

    report = kernel(state, problem)

    labels = tables[3]
    if eta2 == "auto":
        feats, _, _, f0 = _df_forward(state, tables[0], gh_order=20)  # s stays 0: no quadrature
        m = (np.sqrt(state.weights)[:, None] * feats * tables[1]) @ (feats.T * np.sqrt(state.weights))
        lam_feat = float(_eigvalsh((m + m.T) / 2.0)[-1])
        spread = float(np.max(np.abs(f0))) + float(np.max(np.abs(labels))) + 1.0
        h_smooth = second_derivative_bound(cfg.loss, labels, -spread, spread) * max(lam_feat, 1e-12)
        eta2_val = 1.0 / h_smooth
        if not np.isfinite(eta2_val):
            # phase 1 overflowed the features; the first phase-2 update would not be finite
            raise DivergenceError(state.k + 1)
    else:
        eta2_val = float(eta2)

    base, _ = bayes_risk(problem, cfg.loss)
    phase2 = TrainConfig(
        loss=cfg.loss, eta=eta2_val, rate_a=1.0, rate_w=0.0, rate_b=0.0, rate_c=0.0,
        lam_a=cfg.lam_a,
    )
    run = run_df(problem, phase2, k2, state, risk_every=1, risk_losses=[("risk", cfg.loss)])
    history = [
        {"step": row["step"], "phase": 2, "excess": row["risk"] - base, "lambda_min": report.lambda_min}
        for row in run.history
    ]
    return LayerwiseResult(state, report, history, eta2_val, trust_violation)
