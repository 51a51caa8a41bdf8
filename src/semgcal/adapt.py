"""Unsupervised adaptation: DANN, VADA, DIRT-T, AdaBN, MV and SCADANN.

All algorithms start from a trained classifier and a pool of unlabeled
target-session data. The adversarial family retrains with extra loss terms;
AdaBN only refreshes batch-norm statistics; MV and SCADANN build pseudo-labels
from prediction streams and retrain on them.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import DataError, UsageError, check_int, check_real
from .nn import BatchNorm, Network, _Ctx
from .optim import Adam
from .relabel import (
    HeuristicConfig,
    PredictionStream,
    PseudoLabeledDataset,
    generate_pseudo_labels,
    mv_relabel,
)
from .train import TrainConfig, TrainHistory, default_train_config, fit, stratified_split

ADABN_BATCH = 512  # target rows per AdaBN forward batch


@dataclass
class AdaptConfig:
    """Loss weights and schedules for the adversarial family.

    `lambda_d` weighs the domain loss inside VADA and DIRT-T (1e-2 following
    their source); `dann_lambda_d` weighs it for standalone DANN and for
    SCADANN's steps (0.1).
    """

    lambda_d: float = 1e-2
    lambda_vs: float = 1.0
    lambda_vt: float = 1e-2
    lambda_c: float = 1e-2
    beta: float = 1e-2
    vat_epsilon: float = 2.0
    vat_xi: float = 1e-6
    dirt_t_iterations: int = 5
    dirt_t_steps_per_iter: int = 1
    dann_lambda_d: float = 0.1

    def __post_init__(self):
        for name in ("lambda_d", "lambda_vs", "lambda_vt", "lambda_c", "beta", "dann_lambda_d"):
            check_real(name, getattr(self, name), 0.0)
        check_real("vat_epsilon", self.vat_epsilon, 0.0, strict=True)
        check_real("vat_xi", self.vat_xi, 0.0, strict=True)
        check_int("dirt_t_iterations", self.dirt_t_iterations, 1)
        check_int("dirt_t_steps_per_iter", self.dirt_t_steps_per_iter, 1)


def _row_norms(x: np.ndarray) -> np.ndarray:
    flat = x.reshape(len(x), -1)
    return np.sqrt(np.sum(flat * flat, axis=1)).reshape((len(x),) + (1,) * (x.ndim - 1))


@contextlib.contextmanager
def _params_frozen(model: Network):
    params = list(model.named_parameters().values())
    for p in params:
        p.requires_grad = False
    try:
        yield
    finally:
        for p in params:
            p.requires_grad = True


def vat_reference(model: Network, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stop-gradient reference distribution (p0, log p0) of the clean batch.

    Uses the same-precision log softmax so that an unperturbed forward pass
    reproduces ls0 bit for bit and the divergence is exactly zero.
    """
    ls0 = ad.log_softmax_rows(model.eval_logits(x))
    return np.exp(ls0), ls0


def vat_perturbation(model: Network, x: np.ndarray, p0: np.ndarray, ls0: np.ndarray,
                     epsilon: float, xi: float, rng: np.random.Generator) -> np.ndarray:
    """Adversarial perturbation of norm epsilon via one power iteration:
    the input-space gradient of KL(p0 || h(x + xi d)) at a random unit d,
    rescaled to epsilon. Treated as a constant by the training losses."""
    x = np.asarray(x, dtype=np.float32)
    d = rng.standard_normal(x.shape)
    d /= _row_norms(d) + 1e-12
    with model.evaluating(), _params_frozen(model):
        # the curvature probe runs in float64: at xi = 1e-6 the divergence
        # is ~xi^2 and its gradient would vanish in float32 rounding noise
        probe = Tensor(x.astype(np.float64) + xi * d, requires_grad=True)
        ad.kl_to_fixed(p0.astype(np.float64), ls0.astype(np.float64),
                       model.logits(probe)).backward()
    g = probe.grad
    return (epsilon * g / (_row_norms(g) + 1e-12)).astype(x.dtype)


def vat_loss_at(model: Network, x: np.ndarray, r: np.ndarray,
                p0: np.ndarray, ls0: np.ndarray) -> Tensor:
    """Mean KL(p0 || h(x + r)) with p0 and r held constant; differentiable
    with respect to the parameters only (eval-mode forward)."""
    with model.evaluating():
        return ad.kl_to_fixed(p0, ls0, model.logits(np.asarray(x, dtype=np.float32) + r))


def vat_loss(model: Network, batch: np.ndarray, epsilon: float, xi: float = 1e-6, *,
             rng: np.random.Generator) -> Tensor:
    """Virtual adversarial loss: mean KL(h(x) || h(x + r)) for the adversarial
    perturbation r of norm epsilon found by one power iteration from `rng`.

    Runs the network in eval mode (deterministic forward, no dropout, batch
    norm on running statistics); the returned tensor is differentiable with
    respect to the parameters only.
    """
    x = np.asarray(batch, dtype=np.float32)
    p0, ls0 = vat_reference(model, x)
    if epsilon == 0.0:
        return vat_loss_at(model, x, np.zeros_like(x), p0, ls0)
    r = vat_perturbation(model, x, p0, ls0, epsilon, xi, rng)
    return vat_loss_at(model, x, r, p0, ls0)


class _TargetSampler:
    """Cycles through target examples in seeded shuffled order."""

    def __init__(self, x: np.ndarray):
        if len(x) == 0:
            raise DataError("empty target dataset")
        self.x = np.asarray(x, dtype=np.float32)
        self._order: np.ndarray | None = None
        self._pos = 0

    def next_indices(self, k: int, rng: np.random.Generator) -> np.ndarray:
        picks = []
        while k > 0:
            if self._order is None or self._pos >= len(self._order):
                self._order = rng.permutation(len(self.x))
                self._pos = 0
            take = min(k, len(self._order) - self._pos)
            picks.append(self._order[self._pos : self._pos + take])
            self._pos += take
            k -= take
        return np.concatenate(picks)

    def next(self, k: int, rng: np.random.Generator) -> np.ndarray:
        return self.x[self.next_indices(k, rng)]


def _domain_loss(model: Network, rng, feats_s: Tensor, x_tgt_batch: np.ndarray,
                 lambda_d: float) -> tuple[Tensor, Tensor]:
    """lambda_d-weighted domain cross-entropy over paired source/target features."""
    feats_t = model.features(x_tgt_batch, rng=rng)
    dom_feats = ad.concat([feats_s, feats_t])
    dom_logits = model.head_logits(dom_feats, "domain", grl_lambda=1.0)
    dom_labels = np.concatenate(
        [np.zeros(feats_s.data.shape[0], dtype=np.int64), np.ones(feats_t.data.shape[0], dtype=np.int64)]
    )
    loss = ad.mul(ad.cross_entropy(dom_logits, dom_labels), lambda_d)
    return loss, feats_t


def dann_train(model: Network, x_src: np.ndarray, y_src: np.ndarray, x_tgt: np.ndarray,
               lambda_d: float = 0.1, cfg: TrainConfig | None = None) -> tuple[Network, TrainHistory]:
    """Domain-adversarial training: gesture cross-entropy on the source plus a
    reversed-gradient domain loss on equal-size source/target batch pairs.

    With lambda_d == 0 the domain path is skipped entirely and the run is
    bit-identical to supervised training on the source. Trains in place;
    early stopping watches the source validation loss.
    """
    if model.domain_head is None:
        raise UsageError("DANN needs a network with a domain head")
    cfg = cfg or default_train_config(model.kind)
    if lambda_d == 0.0:
        history = fit(model, x_src, y_src, cfg)
        return model, history
    sampler = _TargetSampler(x_tgt)

    def step(mdl, rng, xb, yb, feats_s):
        loss, _ = _domain_loss(mdl, rng, feats_s, sampler.next(len(xb), rng), lambda_d)
        return loss

    history = fit(model, x_src, y_src, cfg, step_extra=step)
    return model, history


def vada_train(model: Network, x_src: np.ndarray, y_src: np.ndarray, x_tgt: np.ndarray,
               acfg: AdaptConfig | None = None, cfg: TrainConfig | None = None) -> tuple[Network, TrainHistory]:
    """DANN plus cluster-assumption terms: virtual adversarial smoothing on
    both domains and conditional entropy on the target.

    Zero-weight terms are skipped without consuming randomness, so zeroing
    everything except lambda_d reproduces the DANN trajectory exactly.
    """
    if model.domain_head is None:
        raise UsageError("VADA needs a network with a domain head")
    acfg = acfg or AdaptConfig()
    cfg = cfg or default_train_config(model.kind)
    sampler = _TargetSampler(x_tgt)

    def step(mdl, rng, xb, yb, feats_s):
        terms = []
        xt_b = sampler.next(len(xb), rng)
        if acfg.lambda_d > 0:
            dom, feats_t = _domain_loss(mdl, rng, feats_s, xt_b, acfg.lambda_d)
            terms.append(dom)
        if acfg.lambda_vs > 0:
            terms.append(ad.mul(vat_loss(mdl, xb, acfg.vat_epsilon, acfg.vat_xi, rng=rng), acfg.lambda_vs))
        if acfg.lambda_vt > 0:
            terms.append(ad.mul(vat_loss(mdl, xt_b, acfg.vat_epsilon, acfg.vat_xi, rng=rng), acfg.lambda_vt))
        if acfg.lambda_c > 0:
            ent = ad.entropy_of_softmax(mdl.logits(xt_b, rng=rng))
            terms.append(ad.mul(ent, acfg.lambda_c))
        if not terms:
            return None
        total = terms[0]
        for t in terms[1:]:
            total = ad.add(total, t)
        return total

    history = fit(model, x_src, y_src, cfg, step_extra=step)
    return model, history


def dirt_t_refine(model: Network, x_tgt: np.ndarray, acfg: AdaptConfig | None = None,
                  cfg: TrainConfig | None = None) -> Network:
    """Non-conservative refinement: each iteration clones the current model as
    a teacher and takes one (or more) epochs of gradient steps minimizing
    beta * KL(teacher || student) + lambda_vt * VAT + lambda_c * entropy on the
    target; the source is not consulted.
    """
    acfg = acfg or AdaptConfig()
    cfg = cfg or default_train_config(model.kind)
    x = np.asarray(x_tgt, dtype=np.float32)
    if len(x) == 0:
        raise DataError("empty target dataset")
    for iteration in range(acfg.dirt_t_iterations):
        teacher = model.clone()
        rng = np.random.default_rng((cfg.seed, iteration))
        opt = Adam(model.named_parameters(), lr=cfg.learning_rate)
        for _ in range(acfg.dirt_t_steps_per_iter):
            order = rng.permutation(len(x))
            for lo in range(0, len(order), cfg.batch_size):
                xb = x[order[lo : lo + cfg.batch_size]]
                ls_t = ad.log_softmax_rows(teacher.eval_logits(xb).astype(np.float64))
                p_t = np.exp(ls_t)
                model.train()
                opt.zero_grad()
                logits = model.logits(xb, rng=rng)
                loss = ad.mul(ad.kl_to_fixed(p_t, ls_t, logits), acfg.beta)
                if acfg.lambda_c > 0:
                    loss = ad.add(loss, ad.mul(ad.entropy_of_softmax(logits), acfg.lambda_c))
                if acfg.lambda_vt > 0:
                    loss = ad.add(loss, ad.mul(vat_loss(model, xb, acfg.vat_epsilon, acfg.vat_xi, rng=rng), acfg.lambda_vt))
                loss.backward()
                opt.step()
        model.zero_grad()  # so neither the next teacher nor the result copies them
    model.eval()
    return model


def adabn_adapt(model: Network, x_tgt: np.ndarray) -> Network:
    """Replace every batch-norm layer's running statistics with the population
    statistics of its input over the target data; all weights stay untouched.

    One eval-mode sweep moves the target batches of `ADABN_BATCH` rows
    through the feature layers, holding one layer's activations at a time:
    at each batch norm the statistics of its input are set before the
    batches pass through it, so the statistics feeding layer k+1 already
    reflect layer k's update. The sweep stops after the last batch norm.
    Running the adaptation twice with the same data is a fixed point.
    """
    x = np.asarray(x_tgt, dtype=np.float32)
    if len(x) < 2:
        raise DataError(f"AdaBN needs at least 2 target examples, got {len(x)}")
    out = model.clone()
    out.eval()
    ctx = _Ctx(False, None)
    layers = out.feature_layers
    last_bn = max((pos for pos, layer in enumerate(layers) if isinstance(layer, BatchNorm)), default=-1)
    acts = [out.layer_input(x[lo : lo + ADABN_BATCH]).data for lo in range(0, len(x), ADABN_BATCH)]
    with ad.no_grad():
        for pos, layer in enumerate(layers[: last_bn + 1]):
            if isinstance(layer, BatchNorm):
                layer.set_stats(*_population_stats(acts))
            if pos < last_bn:
                for k, a in enumerate(acts):
                    acts[k] = layer(Tensor(a), ctx).data
    return out


def _population_stats(batches) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel mean and variance over a list of (N, C) or channel-major
    (C, N, H, W) batches, in float64."""
    total = None
    total_sq = None
    count = 0
    for batch in batches:
        a = batch.astype(np.float64)
        s = ad._chan_sum(a)
        sq = ad._chan_sum(a * a)
        total = s if total is None else total + s
        total_sq = sq if total_sq is None else total_sq + sq
        count += a.size // s.size
    mean = total / count
    return mean, np.maximum(total_sq / count - mean * mean, 1e-12)


@dataclass
class ScadannResult:
    model: Network
    pseudo: PseudoLabeledDataset | None
    status: str
    step1_history: TrainHistory | None = None
    step3_history: TrainHistory | None = None


def prediction_stream(model: Network, x_stream: np.ndarray) -> PredictionStream:
    """Eval-mode softmax rows over time-ordered examples, one window stride apart."""
    return PredictionStream(rows=model.predict_probs(np.asarray(x_stream, dtype=np.float32)))


def scadann_calibrate(
    model: Network,
    x_src: np.ndarray,
    y_src: np.ndarray,
    prior_pseudo: list[tuple[np.ndarray, np.ndarray]],
    x_stream: np.ndarray,
    acfg: AdaptConfig | None = None,
    hcfg: HeuristicConfig | None = None,
    cfg: TrainConfig | None = None,
) -> ScadannResult:
    """Three-step self-calibration.

    1. DANN-adapt the network to the current unlabeled session.
    2. Relabel the adapted network's prediction stream with the
       stability-aware heuristic.
    3. Retrain with cross-entropy on the labeled source and on the new
       pseudo-labels, under a DANN domain loss whose source side is the
       labeled data plus all prior sessions' pseudo-labels and whose target
       side is the current session; early stopping watches a held-out tenth
       of the new pseudo-labels.

    Falls back to the step-1 model (status "empty-pseudo-labels") when the
    heuristic keeps nothing.
    """
    acfg = acfg or AdaptConfig()
    hcfg = hcfg or HeuristicConfig()
    cfg = cfg or default_train_config(model.kind)
    if len(x_src) == 0:
        raise DataError("empty labeled source")
    x_stream = np.asarray(x_stream, dtype=np.float32)

    m1 = model.clone()
    _, hist1 = dann_train(m1, x_src, y_src, x_stream, lambda_d=acfg.dann_lambda_d, cfg=cfg)

    stream = prediction_stream(m1, x_stream)
    pseudo = generate_pseudo_labels(stream, hcfg)
    if pseudo.kept_count == 0:
        return ScadannResult(model=m1, pseudo=pseudo, status="empty-pseudo-labels", step1_history=hist1)

    x_new, y_new = pseudo.gather(x_stream)
    rng = np.random.default_rng(cfg.seed)
    tr_idx, va_idx = stratified_split(y_new, cfg.validation_fraction, rng)
    x_new_tr, y_new_tr = x_new[tr_idx], y_new[tr_idx]
    x_new_va, y_new_va = x_new[va_idx], y_new[va_idx]

    src_parts_x = [np.asarray(x_src, dtype=np.float32)] + [np.asarray(px, dtype=np.float32) for px, _ in prior_pseudo]
    src_parts_y = [np.asarray(y_src, dtype=np.int64)] + [np.asarray(py, dtype=np.int64) for _, py in prior_pseudo]
    dann_src_x = np.concatenate(src_parts_x, axis=0)
    dann_src_y = np.concatenate(src_parts_y, axis=0)

    target_sampler = _TargetSampler(x_new_tr)
    target_labels = y_new_tr

    def step(mdl, step_rng, xb, yb, feats_s):
        idx_batch = target_sampler.next_indices(len(xb), step_rng)
        xt_b = target_sampler.x[idx_batch]
        yt_b = target_labels[idx_batch]
        dom, feats_t = _domain_loss(mdl, step_rng, feats_s, xt_b, acfg.dann_lambda_d)
        pseudo_ce = ad.cross_entropy(mdl.head_logits(feats_t, "gesture"), yt_b)
        return ad.add(dom, pseudo_ce)

    m3 = m1.clone()
    hist3 = fit(m3, dann_src_x, dann_src_y, cfg, step_extra=step, val_data=(x_new_va, y_new_va))
    return ScadannResult(model=m3, pseudo=pseudo, status="ok",
                         step1_history=hist1, step3_history=hist3)


def mv_calibrate(
    model: Network,
    x_src: np.ndarray,
    y_src: np.ndarray,
    streams: list[np.ndarray],
    cfg: TrainConfig | None = None,
) -> tuple[Network, np.ndarray]:
    """Median-vote self-calibration: relabel every pooled stream with the
    model's own median-filtered predictions, then retrain on the labeled
    source plus the pseudo-labeled pool. Returns the model and the pooled
    pseudo-labels (for auditing)."""
    cfg = cfg or default_train_config(model.kind)
    if not streams:
        raise DataError("MV needs at least one unlabeled stream")
    xs, ys = [np.asarray(x_src, dtype=np.float32)], [np.asarray(y_src, dtype=np.int64)]
    pooled_labels = []
    for x_stream in streams:
        x_stream = np.asarray(x_stream, dtype=np.float32)
        labels = mv_relabel(prediction_stream(model, x_stream))
        xs.append(x_stream)
        ys.append(labels)
        pooled_labels.append(labels)
    x_all = np.concatenate(xs, axis=0)
    y_all = np.concatenate(ys, axis=0)
    fit(model, x_all, y_all, cfg)
    return model, np.concatenate(pooled_labels)
