"""Supervised training loop with early stopping and learning-rate annealing.

The same engine drives plain supervised training and, through a per-step
extra-loss hook, the domain-adversarial variants: the hook receives the
current source features and may add arbitrary differentiable terms. With the
hook disabled the loop consumes exactly the same random stream as plain
supervised training, so ablated adversarial runs reproduce it bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import DataError, NumericError, ParameterError, check_int, check_real
from .nn import EVAL_BATCH, Network
from .optim import Adam

CONVNET_LR = 0.001316
TSD_DNN_LR = 0.002515


@dataclass
class TrainConfig:
    learning_rate: float = TSD_DNN_LR
    batch_size: int = 512
    early_stop_patience: int = 10
    anneal_factor: float = 5.0
    anneal_patience: int = 5
    validation_fraction: float = 0.1
    max_epochs: int = 200
    seed: int = 0

    def __post_init__(self):
        for name in ("batch_size", "early_stop_patience", "anneal_patience", "max_epochs"):
            check_int(name, getattr(self, name), 1)
        check_int("seed", self.seed, 0)  # numpy's default_rng takes no negative seed
        check_real("validation_fraction", self.validation_fraction, 0.0, 1.0, strict=True)
        check_real("anneal_factor", self.anneal_factor, 1.0, strict=True)
        check_real("learning_rate", self.learning_rate, 0.0, strict=True)


def default_train_config(kind: str, **overrides) -> TrainConfig:
    lr = {"spectrogram_convnet": CONVNET_LR, "tsd_dnn": TSD_DNN_LR}.get(kind)
    if lr is None:
        raise ParameterError(f"unknown network kind {kind!r}")
    overrides.setdefault("learning_rate", lr)
    return TrainConfig(**overrides)


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_loss: float
    lr: float


@dataclass
class TrainHistory:
    epochs: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = -1
    best_val_loss: float = float("inf")


def stratified_split(y: np.ndarray, fraction: float, rng: np.random.Generator):
    """Per-class shuffled holdout; every class keeps at least one training example.

    Fewer than 2 rows raise DataError: the holdout would leave nothing to train on.
    """
    if len(y) < 2:
        raise DataError(f"a train/validation split needs at least 2 rows, got {len(y)}")
    train_idx, val_idx = [], []
    for cid in np.unique(y):
        idx = np.flatnonzero(y == cid)
        idx = idx[rng.permutation(len(idx))]
        n_val = min(int(np.floor(fraction * len(idx))), len(idx) - 1)
        val_idx.extend(idx[:n_val])
        train_idx.extend(idx[n_val:])
    if not val_idx:
        # tiny datasets: steal one example from the largest class
        counts = {cid: np.sum(y[train_idx] == cid) for cid in np.unique(y)}
        donor = max(counts, key=counts.get)
        pos = next(i for i, j in enumerate(train_idx) if y[j] == donor)
        val_idx.append(train_idx.pop(pos))
    return np.sort(np.array(train_idx)), np.sort(np.array(val_idx))


def _eval_loss(model: Network, x: np.ndarray, y: np.ndarray) -> float:
    """Mean eval-mode cross-entropy, summed over `EVAL_BATCH`-row slices."""
    logits = model.eval_logits(x)
    total = 0.0
    for lo in range(0, len(x), EVAL_BATCH):
        yb = y[lo : lo + EVAL_BATCH]
        total += float(ad.cross_entropy(ad.Tensor(logits[lo : lo + EVAL_BATCH]), yb).data) * len(yb)
    return total / len(x)


def _snapshot(model: Network) -> dict[str, np.ndarray]:
    return {k: v.copy() for k, v in model.state_arrays().items()}


def fit(
    model: Network,
    x: np.ndarray,
    y: np.ndarray,
    cfg: TrainConfig,
    step_extra=None,
    val_data: tuple[np.ndarray, np.ndarray] | None = None,
) -> TrainHistory:
    """Train `model` in place; restores the best-validation parameters at exit.

    Empty or non-finite training or validation inputs raise DataError before
    any step, as does a single training row without `val_data` (the split
    would hold it out); a validation loss that is never finite raises
    NumericError.
    The returned model's parameters hold no gradients.

    `step_extra(model, rng, xb, yb, feats)` may return an extra loss Tensor
    which is added to the cross-entropy of the batch. `val_data` overrides the
    internal stratified 90/10 split (used when early stopping must watch a
    dataset other than a slice of `x`).
    """
    x = np.asarray(x, dtype=np.float32)
    y = np.asarray(y, dtype=np.int64)
    if len(x) == 0:
        raise DataError("empty training set")
    if not np.isfinite(x).all():
        raise DataError("training inputs contain NaN or infinite values")
    if val_data is not None:
        if len(val_data[0]) == 0:
            raise DataError("empty validation set")
        if not np.isfinite(val_data[0]).all():
            raise DataError("validation inputs contain NaN or infinite values")
    if y.max() >= model.num_gestures or y.min() < 0:
        raise DataError(
            f"labels outside 0..{model.num_gestures - 1} for a {model.num_gestures}-gesture head"
        )
    rng = np.random.default_rng(cfg.seed)
    if val_data is None:
        tr_idx, va_idx = stratified_split(y, cfg.validation_fraction, rng)
        x_tr, y_tr, x_va, y_va = x[tr_idx], y[tr_idx], x[va_idx], y[va_idx]
    else:
        x_tr, y_tr = x, y
        x_va, y_va = val_data

    opt = Adam(model.named_parameters(), lr=cfg.learning_rate)
    history = TrainHistory()
    best_state = _snapshot(model)
    since_improve = 0
    since_anneal = 0
    for epoch in range(cfg.max_epochs):
        model.train()
        order = rng.permutation(len(x_tr))
        total = 0.0
        for lo in range(0, len(order), cfg.batch_size):
            idx = order[lo : lo + cfg.batch_size]
            xb, yb = x_tr[idx], y_tr[idx]
            opt.zero_grad()
            feats = model.features(xb, rng=rng)
            loss = ad.cross_entropy(model.head_logits(feats, "gesture"), yb)
            if step_extra is not None:
                extra = step_extra(model, rng, xb, yb, feats)
                if extra is not None:
                    loss = ad.add(loss, extra)
            loss.backward()
            opt.step()
            total += float(loss.data) * len(idx)
        val_loss = _eval_loss(model, x_va, y_va)
        history.epochs.append(EpochRecord(epoch, total / len(order), val_loss, opt.lr))
        if val_loss < history.best_val_loss:
            history.best_val_loss = val_loss
            history.best_epoch = epoch
            best_state = _snapshot(model)
            since_improve = 0
            since_anneal = 0
        else:
            since_improve += 1
            since_anneal += 1
            if since_anneal >= cfg.anneal_patience:
                opt.lr /= cfg.anneal_factor
                since_anneal = 0
            if since_improve >= cfg.early_stop_patience:
                break
    if history.best_epoch < 0:
        raise NumericError(f"no finite validation loss in {len(history.epochs)} epochs")
    model.load_state_arrays(best_state)
    model.zero_grad()  # the last step's gradients: nothing reads them again
    model.eval()
    return history
