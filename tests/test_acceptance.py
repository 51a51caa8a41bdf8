"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `[criterion N] PASS|FAIL` line (run with -s to see them
live). The synthetic end-to-end benchmark runs once in a session fixture and
is re-run from scratch for the byte-identical reproducibility criterion.
"""

import contextlib
import dataclasses
import filecmp
import statistics
import time

import numpy as np
import pytest
from _helpers import mini_net

import semgcal.autodiff as ad
from semgcal import (
    HeuristicConfig,
    PredictionStream,
    adabn_adapt,
    build_spectrogram_convnet,
    build_tsd_dnn,
    dirt_t_refine,
    generate_pseudo_labels,
    mv_relabel,
    vat_loss,
)
from semgcal.adapt import AdaptConfig, _domain_loss, _np_log_softmax
from semgcal.autodiff import Tensor
from semgcal.experiment import BenchmarkConfig, benchmark_report
from semgcal.nn import TSD_HIDDEN, Linear, Network
from semgcal.relabel import entropy_rows
from semgcal.signal import RawRecording, Segment, bandpass, build_spectrogram_example, \
    design_bandpass, segment_stream, spectrogram_channel
from semgcal.stats import cohens_dz, friedman_test, holm_posthoc, wilcoxon_signed_rank
from semgcal.train import TrainConfig, fit


@contextlib.contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"\n[criterion {number}] FAIL: {description}")
        raise
    print(f"\n[criterion {number}] PASS: {description}")


# -- criterion 1: autodiff correctness ----------------------------------------


def _fd_check(loss_fn, params: list[Tensor], rng, n_coords=12, h=1e-3, rel_tol=1e-4):
    """Central-difference check of loss_fn() against the recorded gradients."""
    for p in params:
        p.zero_grad()
    loss_fn().backward()
    checked = 0
    for p in params:
        take = min(n_coords, p.data.size)
        for idx in rng.choice(p.data.size, size=take, replace=False):
            ad_g = 0.0 if p.grad is None else float(p.grad.flat[idx])
            orig = p.data.flat[idx]
            p.data.flat[idx] = orig + h
            up = float(loss_fn().data)
            p.data.flat[idx] = orig - h
            down = float(loss_fn().data)
            p.data.flat[idx] = orig
            fd_g = (up - down) / (2 * h)
            denom = max(abs(ad_g), abs(fd_g))
            if denom < 1e-8:
                continue
            assert abs(ad_g - fd_g) / denom <= rel_tol, (ad_g, fd_g)
            checked += 1
    return checked


def test_criterion_1_autodiff_correctness():
    with criterion(1, "finite-difference gradient checks (layers + DANN/VADA composites)"):
        start = time.time()
        rng = np.random.default_rng(0)

        # per-layer checks live in test_autodiff.py; here: the composite losses
        # on a float64 two-head network without dropout/BN (stop-gradient
        # quantities of VAT are held at their base-parameter values).
        net = mini_net(in_dim=12, hidden=10, classes=4, seed=3, dropout=0.0,
                       with_bn=False, dtype=np.float64)
        net.train()
        params = list(net.named_parameters().values())
        xs = rng.standard_normal((6, 12))
        ys = rng.integers(0, 4, 6)
        xt = rng.standard_normal((6, 12))
        dom_labels = np.array([0] * 6 + [1] * 6, dtype=np.int64)

        def domain_ce(grl: bool):
            feats = ad.concat([net.features(xs), net.features(xt)])
            logits = net.head_logits(feats, "domain", grl_lambda=1.0 if grl else None)
            return ad.cross_entropy(logits, dom_labels)

        from semgcal.adapt import vat_loss_at, vat_perturbation, vat_reference

        p0s, ls0s = vat_reference(net, xs.astype(np.float64))
        rs = vat_perturbation(net, xs.astype(np.float64), p0s, ls0s, 0.5, 1e-6,
                              np.random.default_rng(5))
        p0t, ls0t = vat_reference(net, xt.astype(np.float64))
        rt = vat_perturbation(net, xt.astype(np.float64), p0t, ls0t, 0.5, 1e-6,
                              np.random.default_rng(6))

        def task_terms():
            ce = ad.cross_entropy(net.logits(xs), ys)
            terms = ad.add(ce, ad.mul(vat_loss_at(net, xs, rs, p0s, ls0s), 1.0))
            terms = ad.add(terms, ad.mul(vat_loss_at(net, xt, rt, p0t, ls0t), 0.01))
            return ad.add(terms, ad.mul(ad.entropy_of_softmax(net.logits(xt)), 0.01))

        # 1. the full composite with the reversal node disabled is an ordinary
        #    differentiable function: finite differences must match everywhere
        def composite_unreversed():
            return ad.add(task_terms(), ad.mul(domain_ce(False), 0.01))

        checked = _fd_check(composite_unreversed, params, rng, n_coords=40)
        assert checked >= 100

        # 2. the reversal path: with the node enabled, the feature-extractor
        #    gradient flips exactly the domain component (checked numerically
        #    via finite differences of the domain loss alone at lambda = 0.1)
        lam = 0.1

        def composite(grl: bool):
            return ad.add(task_terms(), ad.mul(domain_ce(grl), lam))

        def grads_of(fn):
            for p in params:
                p.zero_grad()
            fn().backward()
            return {
                name: (np.zeros_like(t.data) if t.grad is None else t.grad.copy())
                for name, t in net.named_parameters().items()
            }

        g_rev = grads_of(lambda: composite(True))
        g_fwd = grads_of(lambda: composite(False))
        g_dom = grads_of(lambda: ad.mul(domain_ce(False), lam))
        feature_names = [n for n in g_rev if n.startswith("fc")]
        head_names = [n for n in g_rev if n.startswith(("gesture_head", "domain_head"))]
        assert feature_names and head_names
        for name in feature_names:
            np.testing.assert_allclose(
                g_rev[name], g_fwd[name] - 2.0 * g_dom[name], rtol=1e-6, atol=1e-12)
        for name in head_names:
            np.testing.assert_allclose(g_rev[name], g_fwd[name], rtol=1e-9, atol=1e-15)

        # FD oracle on the domain-loss path itself (sign flip + scaling)
        name = "fc0.w"
        p = net.named_parameters()[name]
        h = 1e-3
        for idx in rng.choice(p.data.size, size=25, replace=False):
            orig = p.data.flat[idx]
            p.data.flat[idx] = orig + h
            up = float(domain_ce(False).data)
            p.data.flat[idx] = orig - h
            down = float(domain_ce(False).data)
            p.data.flat[idx] = orig
            fd = (up - down) / (2 * h)
            ad_component = (g_rev[name] - g_fwd[name]).flat[idx]  # == -2 lam * dL_d
            if max(abs(fd), abs(ad_component)) < 1e-8:
                continue
            assert abs(ad_component - (-2.0 * lam * fd)) / max(abs(ad_component), 2 * lam * abs(fd)) <= 1e-4

        assert time.time() - start < 60.0


# -- criterion 2: architecture fidelity ---------------------------------------


def test_criterion_2_architecture_fidelity():
    with criterion(2, "ConvNet = 206,548 params; TSD DNN = 3x200; input shapes"):
        convnet = build_spectrogram_convnet(11)
        assert convnet.num_parameters() == 206_548
        x = np.zeros((2, 4, 10, 24), dtype=np.float32)
        assert convnet.eval().predict_probs(x).shape == (2, 11)

        dnn = build_tsd_dnn(11)
        assert TSD_HIDDEN == (200, 200, 200)
        widths = [dnn.named_parameters()[f"fc{i}.w"].data.shape[0] for i in range(3)]
        assert widths == [200, 200, 200]
        assert dnn.eval().predict_probs(np.zeros((2, 385), dtype=np.float32)).shape == (2, 11)


# -- criterion 3: preprocessing fidelity --------------------------------------


def test_criterion_3_preprocessing_fidelity():
    with criterion(3, "spectrogram shapes, segmentation counts, Butterworth response"):
        seg = Segment(data=np.random.default_rng(0).standard_normal((10, 150)), start_index=0)
        per_channel = spectrogram_channel(seg.data[0])
        assert per_channel.shape == (4, 25)
        assert build_spectrogram_example(seg).tensor.shape == (4, 10, 24)

        rng = np.random.default_rng(1)
        for _ in range(1000):
            w = int(rng.integers(2, 500))
            s = int(rng.integers(1, w))
            t = int(rng.integers(w, 6 * w))
            rec = RawRecording(samples=np.zeros((10, t), dtype=np.int16))
            got = len(segment_stream(rec, window_ms=w, overlap_ms=w - s))
            oracle = len(range(0, t - w + 1, s))
            assert got == oracle == (t - w) // s + 1

        from scipy.signal import sosfreqz

        sos = design_bandpass()
        _, h100 = sosfreqz(sos, worN=[100.0], fs=1000)
        _, h5 = sosfreqz(sos, worN=[5.0], fs=1000)
        assert abs(20 * np.log10(abs(h100[0]))) <= 1.0
        assert 20 * np.log10(abs(h5[0])) <= -20.0
        t = np.arange(4000)
        seg100 = Segment(data=np.tile(np.sin(2 * np.pi * 0.1 * t), (10, 1)), start_index=0)
        amp = np.sqrt(2 * np.mean(bandpass(seg100.data)[0, -1000:] ** 2))
        assert abs(20 * np.log10(amp)) <= 1.0
        seg5 = Segment(data=np.tile(np.sin(2 * np.pi * 0.005 * t), (10, 1)), start_index=0)
        amp5 = np.sqrt(2 * np.mean(bandpass(seg5.data)[0, -1000:] ** 2))
        assert 20 * np.log10(amp5) <= -20.0


# -- criterion 4: relabeling oracles ------------------------------------------


def _confident_rows(labels, p=0.95, classes=7):
    labels = np.asarray(labels)
    rows = np.full((len(labels), classes), (1.0 - p) / (classes - 1))
    rows[np.arange(len(labels)), labels] = p
    return rows


def _partition_holds(out):
    kept = np.zeros(out.length, dtype=bool)
    kept[out.indices] = True
    return bool(np.all(kept ^ out.dropped_mask()))


def test_criterion_4_relabeling_oracles():
    with criterion(4, "MV median-vote oracle; hand-traced heuristic fixtures; partition"):
        rng = np.random.default_rng(2)
        for trial in range(1000):
            n = int(rng.integers(3, 70))
            k = int(rng.integers(2, 9))
            raw = rng.random((n, k))
            rows = raw / raw.sum(axis=1, keepdims=True)
            stream = PredictionStream(rows=rows)
            t_s = float(rng.choice([0.25, 0.5, 1.0]))
            w = int(round(t_s * 20))
            got = mv_relabel(stream, t_seconds=t_s)
            for i in range(n):
                window = rows[max(0, i - w): min(n, i + w + 1)]
                meds = [statistics.median(window[:, j].tolist()) for j in range(k)]
                assert got[i] == meds.index(max(meds))

        hcfg = HeuristicConfig(threshold_stable=0.85)

        stable = PredictionStream(rows=_confident_rows([3] * 120))
        out = generate_pseudo_labels(stable, hcfg)
        assert out.kept_count == 120 and np.all(out.labels == 3) and not out.dropped_ranges
        assert _partition_holds(out)

        rows = np.vstack([_confident_rows([1] * 100), _confident_rows([2] * 100)])
        for i, p in zip(range(95, 100), np.linspace(0.9, 0.55, 5)):
            rows[i] = (1 - p) / 6
            rows[i, 1] = p
        out = generate_pseudo_labels(PredictionStream(rows=rows), hcfg)
        labels = np.full(200, -1)
        labels[out.indices] = out.labels
        assert np.all(labels[:95] == 1) and np.all(labels[95:] == 2)
        assert not out.dropped_ranges
        assert _partition_holds(out)

        osc = [(1, 2)[i % 2] for i in range(60)]
        rows = np.vstack([
            _confident_rows([0] * 80),
            _confident_rows(osc, p=0.3),
            _confident_rows([2] * 80),
        ])
        out = generate_pseudo_labels(PredictionStream(rows=rows), hcfg)
        assert np.all(out.dropped_mask()[80:140])
        assert _partition_holds(out)


# -- criterion 5: adaptation unit behavior ------------------------------------


def test_criterion_5_adaptation_units():
    with criterion(5, "entropy ln 7; VAT beats random; AdaBN bitwise+moments; DIRT-T anchor"):
        uniform = Tensor(np.log(np.full((10, 7), 1 / 7)))
        assert abs(float(ad.entropy_of_softmax(uniform).data) - np.log(7)) <= 1e-9

        model = mini_net(seed=5, with_bn=False)
        rng = np.random.default_rng(6)
        x1 = rng.standard_normal((1, 16)).astype(np.float32)
        adv = float(vat_loss(model, x1, epsilon=1.0, xi=1e-6, rng=np.random.default_rng(7)).data)
        wins = 0
        for _ in range(100):
            d = rng.standard_normal(x1.shape)
            d *= 1.0 / np.linalg.norm(d)
            model.eval()
            with ad.no_grad():
                ls0 = _np_log_softmax(model.logits(x1).data.astype(np.float64))
                ls1 = _np_log_softmax(model.logits(x1 + d.astype(np.float32)).data.astype(np.float64))
            kl = float(np.sum(np.exp(ls0) * (ls0 - ls1), axis=1).mean())
            wins += adv >= kl
        assert wins >= 95

        # AdaBN: weights bit-identical, statistics match target moments to 1e-4
        rng2 = np.random.default_rng(8)
        from semgcal.nn import BatchNorm

        bn = BatchNorm("bn", 5, np.float32)
        net = Network("tsd_dnn", 3, [bn],
                      Linear("gesture_head", 5, 3, rng2, np.float32),
                      Linear("domain_head", 5, 2, rng2, np.float32), (5,))
        mu = np.array([0.5, -1.0, 2.0, 0.0, -0.25])
        sig2 = np.array([1.5, 0.25, 2.0, 1.0, 0.5])
        xt = (rng2.standard_normal((5000, 5)) * np.sqrt(sig2) + mu).astype(np.float32)
        adapted = adabn_adapt(net, xt, batch_size=512)
        for name, arr in net.named_parameters().items():
            assert arr.data.tobytes() == adapted.named_parameters()[name].data.tobytes()
        got = adapted.bn_layers()[0]
        assert np.max(np.abs(got.running_mean - xt.mean(axis=0))) <= 1e-4
        assert np.max(np.abs(got.running_var - xt.var(axis=0))) <= 1e-4

        # DIRT-T with beta = 1e6 anchors the parameters (one iteration)
        from _helpers import cluster_task

        x_src, y_src, x_tgt, _ = cluster_task(seed=5)
        anchor = mini_net(seed=4)
        fit(anchor, x_src, y_src,
            TrainConfig(learning_rate=0.01, batch_size=64, max_epochs=6, seed=4))
        before = {k: v.copy() for k, v in anchor.state_arrays().items()}
        acfg = AdaptConfig(beta=1e6, lambda_vt=1e-2, lambda_c=1e-2, vat_epsilon=0.5,
                           dirt_t_iterations=1, dirt_t_steps_per_iter=1)
        dirt_t_refine(anchor, x_tgt, acfg=acfg,
                      cfg=TrainConfig(learning_rate=1e-4, batch_size=64, max_epochs=1, seed=8))
        moved = max(
            float(np.max(np.abs(anchor.named_parameters()[k].data - before[k])))
            for k in anchor.named_parameters()
        )
        assert moved < 1e-3


# -- criteria 6 and 8: synthetic benchmark ------------------------------------


MASTER_SEED = 0


@pytest.fixture(scope="session")
def benchmark_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("benchmark") / "run1"
    cfg = BenchmarkConfig(seed=MASTER_SEED)
    start = time.time()
    report = benchmark_report(cfg, out)
    return report, out, time.time() - start


@pytest.mark.slow
def test_criterion_6_synthetic_benchmark(benchmark_run):
    with criterion(6, "20-subject benchmark: decay, SCADANN wins, DA algorithms hold"):
        report, _, elapsed = benchmark_run
        assert elapsed < 30 * 60.0
        algos = report["algorithms"]
        idx = {a: j for j, a in enumerate(algos)}
        m = {s: np.asarray(report["accuracy"][s]["matrix"]) for s in ("0", "1", "2")}
        assert all(mat.shape == (20, len(algos)) for mat in m.values())

        nocal0 = m["0"][:, idx["nocal"]]
        nocal2 = m["2"][:, idx["nocal"]]
        assert (nocal0 - nocal2).mean() >= 0.05

        sc1, sc2 = m["1"][:, idx["scadann"]], m["2"][:, idx["scadann"]]
        nc1, nc2 = m["1"][:, idx["nocal"]], m["2"][:, idx["nocal"]]
        assert sc1.mean() > nc1.mean()
        assert sc2.mean() > nc2.mean()
        wins = int(np.sum((sc1 + sc2) / 2 > (nc1 + nc2) / 2))
        assert wins >= 18

        nocal_mean = (nc1.mean() + nc2.mean()) / 2
        for algo in ("dann", "vada", "adabn"):
            algo_mean = (m["1"][:, idx[algo]].mean() + m["2"][:, idx[algo]].mean()) / 2
            assert algo_mean >= nocal_mean - 0.005, algo


@pytest.mark.slow
def test_criterion_8_reproducibility(benchmark_run, tmp_path_factory):
    with criterion(8, "two full benchmark runs produce byte-identical reports"):
        _, first_dir, _ = benchmark_run
        second_dir = tmp_path_factory.mktemp("benchmark") / "run2"
        benchmark_report(BenchmarkConfig(seed=MASTER_SEED), second_dir)
        for name in ("report.json", "manifest.json", "accuracy_0.csv",
                     "accuracy_1.csv", "accuracy_2.csv"):
            assert filecmp.cmp(first_dir / name, second_dir / name, shallow=False), name


# -- criterion 7: statistics oracles ------------------------------------------


def test_criterion_7_statistics_oracles():
    with criterion(7, "Wilcoxon exact vs 2^n; Friedman vs sorting; Dz; Holm rejection"):
        import itertools

        from scipy.stats import rankdata

        rng = np.random.default_rng(3)
        for n in (4, 6, 9, 12):
            a = rng.standard_normal(n)
            b = rng.standard_normal(n)
            diffs = a - b
            nz = diffs[diffs != 0]
            ranks = rankdata(np.abs(nz))
            w_obs = ranks[nz > 0].sum()
            w_all = np.array([
                sum(r for r, s in zip(ranks, signs) if s)
                for signs in itertools.product([0, 1], repeat=len(nz))
            ])
            p_le = np.mean(w_all <= w_obs + 1e-12)
            p_ge = np.mean(w_all >= w_obs - 1e-12)
            oracle = min(1.0, 2.0 * min(p_le, p_ge))
            assert abs(wilcoxon_signed_rank(a, b) - oracle) <= 1e-12

        for _ in range(25):
            table = rng.random((7, 4))
            res = friedman_test(table)
            oracle_ranks = np.mean([rankdata(-row) for row in table], axis=0)
            np.testing.assert_allclose(res.avg_ranks, oracle_ranks)

        assert cohens_dz(np.array([2.0, 4.0, 6.0]), np.zeros(3)) == pytest.approx(2.0)
        assert cohens_dz(np.array([1.0, -1.0]), np.zeros(2)) == 0.0

        # fabricated 20-subject table with one dominant algorithm
        base = rng.uniform(0.6, 0.8, (20, 1))
        dominant = base + 0.15
        noise = rng.uniform(-0.01, 0.01, (20, 5))
        table = np.hstack([base, dominant, base + noise[:, :4]])
        res = friedman_test(table)
        holm = holm_posthoc(res.avg_ranks, n=20, control=0, alpha=0.05)
        assert holm.reject[1]
