"""Coordinate-registration pipeline for an external localization reference.

Matched tracker/reference position pairs are used to fit a hierarchy of
mappings from the tracker frame to the reference frame:

    raw (identity)  ->  rigid SVD  ->  global affine  ->  affine + MLP residual

The hybrid model is  f(p) = A p + t + g(normalize(p); theta)  where g is a
small tanh network trained on the affine residuals.  A synthetic distortion
field (true affine plus smooth radial bumps plus sensor noise) provides
ground truth for benchmarking the ladder.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .core import rng_stream
from .spatial import summarize


@dataclass(frozen=True)
class MatchedPairs:
    """Synchronized coordinate pairs (tracker frame vs reference frame)."""

    t_ns: np.ndarray
    p_tracker: np.ndarray  # (N, d)
    p_reference: np.ndarray  # (N, d)

    def __len__(self) -> int:
        return int(self.t_ns.size)

    @property
    def d(self) -> int:
        return int(self.p_tracker.shape[1])

    def save_csv(self, path) -> None:
        d = self.d
        cols = ["t_ns"] + [f"pT{ax}" for ax in "xyz"[:d]] + [f"pL{ax}" for ax in "xyz"[:d]]
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(cols) + "\n")
            for t, tracker, reference in zip(self.t_ns.tolist(), self.p_tracker.tolist(),
                                             self.p_reference.tolist()):
                fh.write(",".join([str(t), *map(repr, tracker), *map(repr, reference)]) + "\n")


class DegenerateGeometryError(ValueError):
    pass


def fit_rigid_svd(pairs: MatchedPairs, train_idx) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares rigid transform (rotation + translation, det(R) = +1)."""
    idx = np.asarray(train_idx, dtype=int)
    d = pairs.d
    if idx.size < d + 1:
        raise DegenerateGeometryError(f"need at least {d + 1} pairs")
    src = pairs.p_tracker[idx]
    dst = pairs.p_reference[idx]
    c_src = src.mean(axis=0)
    c_dst = dst.mean(axis=0)
    h = (src - c_src).T @ (dst - c_dst)
    u, s, vt = np.linalg.svd(h)
    if s[0] <= 0.0 or s[-1] / s[0] < 1e-12:
        raise DegenerateGeometryError("point configuration is degenerate")
    sign = np.sign(np.linalg.det(vt.T @ u.T))
    corr = np.ones(d)
    corr[-1] = sign
    r = vt.T @ np.diag(corr) @ u.T
    t = c_dst - r @ c_src
    return r, t


def fit_affine(pairs: MatchedPairs, train_idx) -> tuple[np.ndarray, np.ndarray]:
    """Ordinary least squares affine map on homogeneous coordinates."""
    idx = np.asarray(train_idx, dtype=int)
    d = pairs.d
    if idx.size < d + 1:
        raise DegenerateGeometryError(f"need at least {d + 1} pairs")
    src = pairs.p_tracker[idx]
    dst = pairs.p_reference[idx]
    design = np.hstack([src, np.ones((idx.size, 1))])
    if np.linalg.matrix_rank(design) < d + 1:
        raise DegenerateGeometryError("design matrix is rank deficient")
    sol, *_ = np.linalg.lstsq(design, dst, rcond=None)
    return sol[:d].T.copy(), sol[d].copy()


@dataclass(frozen=True)
class Normalizer:
    """Per-dimension affine input scaling (zero mean, unit variance)."""

    mean: np.ndarray
    scale: np.ndarray

    @staticmethod
    def fit(x: np.ndarray) -> "Normalizer":
        mean = x.mean(axis=0)
        scale = x.std(axis=0)
        scale = np.where(scale > 1e-12, scale, 1.0)
        return Normalizer(mean, scale)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return (x - self.mean) / self.scale


class ResidualMlp:
    """Small tanh network mapping normalized inputs to residual corrections.

    ``weights`` and ``biases`` are views into one flat parameter vector
    ``theta`` (every weight matrix, then every bias vector, row-major)."""

    def __init__(self, sizes: list[int], rng: np.random.Generator) -> None:
        self.sizes = list(sizes)
        arrays = []
        for i, (n_in, n_out) in enumerate(zip(sizes[:-1], sizes[1:])):
            limit = math.sqrt(6.0 / (n_in + n_out))
            w = rng.uniform(-limit, limit, size=(n_in, n_out))
            if i == len(sizes) - 2:
                w *= 0.1  # start the correction head near zero output
            arrays.append(w)
        arrays += [np.zeros(w.shape[1]) for w in arrays]
        self.theta = np.concatenate([a.ravel() for a in arrays])
        views = np.split(self.theta, np.cumsum([a.size for a in arrays])[:-1])
        views = [v.reshape(a.shape) for v, a in zip(views, arrays)]
        self.weights: list[np.ndarray] = views[:len(sizes) - 1]
        self.biases: list[np.ndarray] = views[len(sizes) - 1:]

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.forward_with_cache(x)[0]

    def forward_with_cache(self, x):
        """``(output, activations)``: the activations are the input of each
        layer, as ``gradients`` takes them."""
        activations = [x]
        h = x
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            h = np.tanh(h @ w + b)
            activations.append(h)
        out = h @ self.weights[-1] + self.biases[-1]
        return out, activations

    def gradients(self, acts, err):
        """Backprop of the loss gradient ``err`` (dL/dout) through the layer
        inputs ``acts`` of the forward pass that produced the output."""
        grads_w = [None] * len(self.weights)
        grads_b = [None] * len(self.biases)
        delta = err
        for layer in range(len(self.weights) - 1, -1, -1):
            grads_w[layer] = acts[layer].T @ delta
            grads_b[layer] = delta.sum(axis=0)
            if layer > 0:
                delta = (delta @ self.weights[layer].T) * (1.0 - acts[layer] ** 2)
        return grads_w, grads_b

    def params_flat(self) -> np.ndarray:
        return self.theta.copy()

    def set_params_flat(self, theta: np.ndarray) -> None:
        if theta.shape != self.theta.shape:
            raise ValueError("parameter vector size mismatch")
        self.theta[:] = theta


@dataclass(frozen=True)
class MlpHyper:
    epochs: int = 2000
    seed: int = 0


#: Residual-network training constants: hidden layer widths, Adam mini-batch
#: size and step size, the share of the training pairs held out for early
#: stopping, and the epochs without a validation improvement that stop it.
MLP_HIDDEN = (64, 64)
MLP_BATCH = 256
MLP_STEP = 1e-3
MLP_VAL_FRACTION = 0.1
MLP_PATIENCE = 50


class TrainingDivergedError(RuntimeError):
    pass


def fit_residual_mlp(pairs: MatchedPairs, train_idx, affine: tuple[np.ndarray, np.ndarray],
                     hyper: MlpHyper) -> tuple[ResidualMlp, Normalizer]:
    """Train the residual network on the affine fit's training residuals.

    Mini-batch Adam with early stopping on a held-out validation fraction of
    the training set; returns the best-validation parameters.  Fully
    deterministic under ``hyper.seed``.
    """
    a_mat, t_vec = affine
    idx = np.asarray(train_idx, dtype=int)
    rng = rng_stream(hyper.seed, "reg.mlp")

    x_all = pairs.p_tracker[idx]
    resid = pairs.p_reference[idx] - (x_all @ a_mat.T + t_vec)
    normalizer = Normalizer.fit(x_all)
    xn = normalizer(x_all)

    n = idx.size
    order = rng.permutation(n)
    n_val = max(int(round(MLP_VAL_FRACTION * n)), 1)
    val_sel = order[:n_val]
    tr_sel = order[n_val:]
    x_tr, y_tr = xn[tr_sel], resid[tr_sel]
    x_val, y_val = xn[val_sel], resid[val_sel]

    d = pairs.d
    mlp = ResidualMlp([d, *MLP_HIDDEN, d], rng=rng)

    # Adam moments of the flat parameter vector.
    m = np.zeros_like(mlp.theta)
    v = np.zeros_like(mlp.theta)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step_count = 0

    def val_loss() -> float:
        return float(np.mean((mlp.forward(x_val) - y_val) ** 2))

    best = val_loss()
    best_theta = mlp.params_flat()
    stale = 0
    n_tr = x_tr.shape[0]
    for _epoch in range(hyper.epochs):
        perm = rng.permutation(n_tr)
        for start in range(0, n_tr, MLP_BATCH):
            sel = perm[start:start + MLP_BATCH]
            xb, yb = x_tr[sel], y_tr[sel]
            pred, acts = mlp.forward_with_cache(xb)
            err = 2.0 * (pred - yb) / xb.shape[0]
            if not np.isfinite(pred).all():
                raise TrainingDivergedError(
                    f"non-finite network output at step {step_count}")
            gw, gb = mlp.gradients(acts, err)
            step_count += 1
            corr1 = 1.0 - beta1**step_count
            corr2 = 1.0 - beta2**step_count
            g = np.concatenate([a.ravel() for a in gw + gb])
            m = beta1 * m + (1 - beta1) * g
            v = beta2 * v + (1 - beta2) * g ** 2
            mlp.theta -= MLP_STEP * (m / corr1) / (np.sqrt(v / corr2) + eps)
        loss = val_loss()
        if not math.isfinite(loss):
            raise TrainingDivergedError(f"non-finite validation loss at epoch {_epoch}")
        if loss < best - 1e-15:
            best = loss
            best_theta = mlp.params_flat()
            stale = 0
        else:
            stale += 1
            if stale >= MLP_PATIENCE:
                break
    mlp.set_params_flat(best_theta)
    return mlp, normalizer


@dataclass
class RegistrationModel:
    """f(p) = A p + t + g(normalize(p); theta); g optional (affine-only models)."""

    a_mat: np.ndarray
    t_vec: np.ndarray
    normalizer: Normalizer | None = None
    mlp: ResidualMlp | None = None
    train_idx: np.ndarray | None = None

    def predict(self, p: np.ndarray) -> np.ndarray:
        p = np.atleast_2d(np.asarray(p, dtype=float))
        out = p @ self.a_mat.T + self.t_vec
        if self.mlp is not None:
            out = out + self.mlp.forward(self.normalizer(p))
        return out

    @staticmethod
    def identity(d: int) -> "RegistrationModel":
        return RegistrationModel(np.eye(d), np.zeros(d))

    def to_json_dict(self) -> dict:
        obj = {
            "schema_version": 1,
            "d": int(self.a_mat.shape[0]),
            "A": self.a_mat.tolist(),
            "t": self.t_vec.tolist(),
            "normalizer": None,
            "mlp": None,
            "train_idx": None if self.train_idx is None else [int(i) for i in self.train_idx],
        }
        if self.normalizer is not None:
            obj["normalizer"] = {"mean": self.normalizer.mean.tolist(),
                                 "scale": self.normalizer.scale.tolist()}
        if self.mlp is not None:
            obj["mlp"] = {"sizes": self.mlp.sizes, "theta": self.mlp.params_flat().tolist()}
        return obj

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(json.dumps(self.to_json_dict(), sort_keys=True) + "\n")


def evaluate(model: RegistrationModel, pairs: MatchedPairs, test_idx) -> dict:
    """The ``spatial.summarize`` of ||f(p_T) - p_L|| over the test pairs only."""
    idx = np.asarray(test_idx, dtype=int)
    if idx.size == 0:
        raise ValueError("test set is empty")
    if model.train_idx is not None:
        overlap = np.intersect1d(idx, model.train_idx)
        if overlap.size:
            raise ValueError(f"test indices overlap training set (e.g. {int(overlap[0])})")
    pred = model.predict(pairs.p_tracker[idx])
    errors = np.linalg.norm(pred - pairs.p_reference[idx], axis=1)
    return summarize(errors)


# ---------------------------------------------------------------------------
# Synthetic distortion-field benchmark


@dataclass(frozen=True)
class GaussianBump:
    center: np.ndarray
    amplitude: np.ndarray  # displacement vector at the bump center
    width: float


@dataclass(frozen=True)
class DistortionField:
    """Ground-truth map from tracker space to reference space.

    reference = A0 p + t0 + warp(p), with warp a sum of radial Gaussian
    displacement bumps; tracker measurements additionally carry isotropic
    Gaussian noise.
    """

    a_true: np.ndarray
    t_true: np.ndarray
    bumps: tuple[GaussianBump, ...]
    noise_std: float
    seed: int

    def warp(self, p: np.ndarray) -> np.ndarray:
        out = np.zeros_like(p)
        for b in self.bumps:
            r2 = np.sum((p - b.center) ** 2, axis=1)
            out += np.exp(-r2 / (2.0 * b.width**2))[:, None] * b.amplitude
        return out

    def forward(self, p: np.ndarray) -> np.ndarray:
        return p @ self.a_true.T + self.t_true + self.warp(p)

    def invert(self, targets: np.ndarray, iters: int = 60, tol: float = 1e-13) -> np.ndarray:
        """Newton inversion of the forward map for each row of ``targets``
        ``(N, d)``.  Each row iterates on its own and leaves the active set
        once its residual norm is below ``tol``, so a row's result does not
        depend on the other rows.  The stacked ``np.matmul`` products and the
        per-row ``math.exp`` reproduce the bits of a one-point solve."""
        p = np.matmul(np.linalg.inv(self.a_true), (targets - self.t_true)[:, :, None])[:, :, 0]
        active = np.arange(targets.shape[0])
        for _ in range(iters):
            pa = p[active]
            f = (np.matmul(self.a_true, pa[:, :, None])[:, :, 0] + self.t_true
                 + self.warp(pa) - targets[active])
            ff = np.matmul(f[:, None, :], f[:, :, None])[:, 0, 0]
            keep = ~(ff < tol**2)
            active, pa, f = active[keep], pa[keep], f[keep]
            if active.size == 0:
                break
            jac = np.zeros((active.size, *self.a_true.shape))
            for b in self.bumps:
                diff = pa - b.center
                r2 = np.matmul(diff[:, None, :], diff[:, :, None])[:, 0, 0]
                g = np.array([math.exp(-x / (2.0 * b.width**2)) for x in r2.tolist()])
                jac += b.amplitude[:, None] * (-diff / b.width**2)[:, None, :] * g[:, None, None]
            step = np.linalg.solve(self.a_true + jac, f[:, :, None])[:, :, 0]
            p[active] = pa - step
        return p


def synth_dataset(field: DistortionField, n_points: int, workspace) -> MatchedPairs:
    """Sample reference points uniformly in the workspace box and invert.

    ``workspace`` is ((min...), (max...)) per dimension.  Tracker coordinates
    are the exact inverse images plus Gaussian measurement noise; timestamps
    are a nominal uniform cadence.
    """
    if n_points < 100:
        raise ValueError("need at least 100 points")
    lo = np.asarray(workspace[0], dtype=float)
    hi = np.asarray(workspace[1], dtype=float)
    d = lo.size
    rng = rng_stream(field.seed, "reg.data")
    p_ref = lo + (hi - lo) * rng.random((n_points, d))
    p_trk = field.invert(p_ref)
    if field.noise_std > 0.0:
        p_trk = p_trk + field.noise_std * rng.standard_normal(p_trk.shape)
    t_ns = (np.arange(n_points, dtype=np.int64) * 20_000_000)
    return MatchedPairs(t_ns, p_trk, p_ref)


def split_indices(n: int, train_fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded uniform shuffle split into (train, test) index arrays."""
    rng = rng_stream(seed, "reg.split")
    order = rng.permutation(n)
    n_train = int(train_fraction * n)
    return np.sort(order[:n_train]), np.sort(order[n_train:])


#: Default seed of the shipped benchmark: its distortion field's noise and the
#: residual network's training.
BENCHMARK_SEED = 20240401


def default_benchmark_field(seed: int = BENCHMARK_SEED) -> DistortionField:
    """Shipped synthetic benchmark: mild rotation/scale/shear plus 3 bumps."""
    theta = math.radians(8.0)
    rot = np.array([[math.cos(theta), -math.sin(theta)],
                    [math.sin(theta), math.cos(theta)]])
    a0 = rot @ np.array([[1.03, 0.015], [0.0, 0.97]])
    return DistortionField(
        a_true=a0,
        t_true=np.array([0.35, -0.20]),
        bumps=(
            GaussianBump(np.array([1.05, 1.15]), np.array([0.022, -0.012]), 0.55),
            GaussianBump(np.array([2.90, 2.40]), np.array([-0.018, 0.025]), 0.75),
            GaussianBump(np.array([1.90, 3.30]), np.array([0.012, 0.016]), 0.50),
        ),
        noise_std=0.002,
        seed=seed,
    )


#: Benchmark sizing: 3433 pairs over the 4.2 m square workspace, 80/20 split.
BENCHMARK_N_POINTS = 3433
BENCHMARK_WORKSPACE = ((0.0, 0.0), (4.2, 4.2))
BENCHMARK_TRAIN_FRACTION = 0.8


def run_benchmark(field: DistortionField | None = None, hyper: MlpHyper | None = None):
    """Fit the full model ladder on the shipped benchmark.

    Returns (pairs, train_idx, test_idx, {name: (model, its ``evaluate`` summary)}).
    """
    if field is None:
        field = default_benchmark_field()
    pairs = synth_dataset(field, BENCHMARK_N_POINTS, BENCHMARK_WORKSPACE)
    train_idx, test_idx = split_indices(len(pairs), BENCHMARK_TRAIN_FRACTION, field.seed)
    if hyper is None:
        hyper = MlpHyper(seed=field.seed)

    results = {}
    raw = RegistrationModel.identity(pairs.d)
    raw.train_idx = train_idx
    results["raw"] = (raw, evaluate(raw, pairs, test_idx))

    r_mat, t_r = fit_rigid_svd(pairs, train_idx)
    rigid = RegistrationModel(r_mat, t_r, train_idx=train_idx)
    results["rigid_svd"] = (rigid, evaluate(rigid, pairs, test_idx))

    a_mat, t_a = fit_affine(pairs, train_idx)
    affine = RegistrationModel(a_mat, t_a, train_idx=train_idx)
    results["affine"] = (affine, evaluate(affine, pairs, test_idx))

    mlp, norm = fit_residual_mlp(pairs, train_idx, (a_mat, t_a), hyper)
    hybrid = RegistrationModel(a_mat.copy(), t_a.copy(), normalizer=norm, mlp=mlp,
                               train_idx=train_idx)
    results["hybrid"] = (hybrid, evaluate(hybrid, pairs, test_idx))
    return pairs, train_idx, test_idx, results
