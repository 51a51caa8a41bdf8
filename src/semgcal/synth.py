"""Synthetic multi-session sEMG dataset with controllable domain shift.

Each subject gets per-gesture channel envelopes and spectral profiles; signals
are band-limited noise shaped by both. A session s != 0 sees the world through
a drifted armband: a fractional circular channel rotation of s * shift_scale
electrode positions plus per-channel gain drift. Training recordings hold one
steady gesture per block; evaluation recordings chain randomized blocks with
short crossfaded transitions, which is what the pseudo-labeling heuristics
must cope with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
from .signal import NUM_CHANNELS, SAMPLE_RATE_HZ, RawRecording

INT_SCALE = 1200.0  # float signal units -> integer counts


@dataclass(frozen=True)
class SynthConfig:
    subjects: int = 20
    sessions: int = 3
    gestures: int = 11
    shift_scale: float = 0.35  # per-session drift magnitude (channel fractions)
    noise_scale: float = 0.15
    seed: int = 0
    cycles: int = 3
    cycle_block_seconds: float = 5.0
    eval_recordings: int = 2
    eval_blocks: int = 42
    eval_block_seconds: float = 5.0
    transition_ms: int = 150
    gain_drift: float = 0.5  # log-gain spread per unit shift_scale

    def __post_init__(self):
        if min(self.subjects, self.sessions, self.gestures, self.cycles,
               self.eval_recordings, self.eval_blocks) < 1:
            raise ParameterError("all counts must be >= 1")
        if self.shift_scale < 0 or self.noise_scale < 0:
            raise ParameterError("scales must be >= 0")
        if self.gestures > 11:
            raise ParameterError(f"at most 11 gestures supported, got {self.gestures}")
        if self.transition_ms < 0:
            raise ParameterError(f"transition_ms must be >= 0, got {self.transition_ms}")
        if not all(map(math.isfinite, (self.cycle_block_seconds, self.eval_block_seconds))):
            raise ParameterError("block lengths must be finite")
        if _samples(self.cycle_block_seconds) < 1:
            raise ParameterError(f"a {self.cycle_block_seconds} s cycle block is under one sample")
        if _samples(self.eval_block_seconds) < max(1, _ramp_samples(self.transition_ms)):
            raise ParameterError(f"a {self.eval_block_seconds} s evaluation block is shorter than "
                                 f"one sample or its {self.transition_ms} ms transition")


def _samples(seconds: float) -> int:
    return int(round(seconds * SAMPLE_RATE_HZ))


def _ramp_samples(transition_ms: int) -> int:
    return int(transition_ms * SAMPLE_RATE_HZ / 1000)


@dataclass
class SessionData:
    subject: int
    session: int
    cycles: list[dict[int, RawRecording]]
    evals: list[RawRecording] = field(default_factory=list)


@dataclass
class SubjectData:
    subject: int
    sessions: list[SessionData]


@dataclass(frozen=True)
class _GestureProfile:
    envelope: np.ndarray  # (channels,)
    center_hz: float
    width_hz: float


def _subject_profiles(rng: np.random.Generator, gestures: int) -> list[_GestureProfile]:
    profiles = []
    for _ in range(gestures):
        envelope = rng.uniform(0.15, 1.9, NUM_CHANNELS)
        center = rng.uniform(50.0, 320.0)
        width = rng.uniform(25.0, 90.0)
        profiles.append(_GestureProfile(envelope=envelope, center_hz=center, width_hz=width))
    return profiles


def _session_transform(rng: np.random.Generator, session: int, cfg: SynthConfig):
    shift = session * cfg.shift_scale
    log_gain = rng.uniform(-1.0, 1.0, NUM_CHANNELS) * cfg.gain_drift * session * cfg.shift_scale
    return shift, np.exp(log_gain)


def _gesture_block(rng: np.random.Generator, profile: _GestureProfile, n: int,
                   noise_scale: float) -> np.ndarray:
    """Band-limited noise with the gesture's spectral bump, scaled per channel."""
    white = rng.standard_normal((NUM_CHANNELS, n))
    freqs = np.fft.rfftfreq(n, d=1.0 / SAMPLE_RATE_HZ)
    shape = np.exp(-0.5 * ((freqs - profile.center_hz) / profile.width_hz) ** 2) + 0.15
    shape[freqs < 15.0] *= 0.05  # keep synthetic content inside the analysis band
    shape[freqs > 480.0] *= 0.05
    shaped = np.fft.irfft(np.fft.rfft(white, axis=1) * shape[None, :], n=n, axis=1)
    shaped /= np.sqrt(np.mean(shape**2))  # roughly unit variance
    x = profile.envelope[:, None] * shaped
    if noise_scale > 0:
        x = x + noise_scale * rng.standard_normal((NUM_CHANNELS, n))
    return x


def _apply_transform(x: np.ndarray, shift: float, gains: np.ndarray) -> np.ndarray:
    """Fractional circular channel rotation followed by per-channel gains."""
    if shift != 0.0:
        k = int(np.floor(shift))
        frac = shift - k
        rolled = np.roll(x, -k, axis=0)
        if frac > 0:
            rolled = (1.0 - frac) * rolled + frac * np.roll(x, -(k + 1), axis=0)
        x = rolled
    return gains[:, None] * x


def _to_int16(x: np.ndarray) -> np.ndarray:
    return np.clip(np.rint(x * INT_SCALE), -32768, 32767).astype(np.int16)


def _eval_stream(rng: np.random.Generator, profiles, cfg: SynthConfig, shift, gains):
    """Randomized gesture blocks joined by linear crossfades; per-sample labels
    switch at the midpoint of each crossfade."""
    block_n = _samples(cfg.eval_block_seconds)
    ramp = _ramp_samples(cfg.transition_ms)
    order = [int(rng.integers(0, cfg.gestures))]
    for _ in range(cfg.eval_blocks - 1):
        nxt = int(rng.integers(0, cfg.gestures - 1))
        if nxt >= order[-1]:
            nxt += 1  # avoid trivially repeated blocks
        order.append(nxt)
    total = block_n * len(order)
    signal = np.zeros((NUM_CHANNELS, total))
    labels = np.zeros(total, dtype=np.int64)
    ramp_w = np.linspace(0.0, 1.0, ramp, endpoint=False) if ramp else None
    prev_tail = None
    for b, g in enumerate(order):
        lo = b * block_n
        block = _gesture_block(rng, profiles[g], block_n + ramp, cfg.noise_scale)
        if prev_tail is not None and ramp:
            head = block[:, :ramp]
            signal[:, lo : lo + ramp] = (1.0 - ramp_w) * prev_tail + ramp_w * head
            signal[:, lo + ramp : lo + block_n] = block[:, ramp:block_n]
        else:
            signal[:, lo : lo + block_n] = block[:, :block_n]
        prev_tail = block[:, block_n : block_n + ramp]
        mid = lo - ramp // 2 if b > 0 else lo
        labels[max(0, mid) :] = g
    samples = _to_int16(_apply_transform(signal, shift, gains))
    return RawRecording(samples=samples, labels=labels)


def synth_generate(cfg: SynthConfig) -> list[SubjectData]:
    """Deterministic multi-subject, multi-session dataset."""
    root_ss = np.random.SeedSequence(cfg.seed)
    subject_seeds = root_ss.spawn(cfg.subjects)
    subjects = []
    for s_idx, s_seed in enumerate(subject_seeds):
        profile_ss, *session_seeds = s_seed.spawn(cfg.sessions + 1)
        profiles = _subject_profiles(np.random.default_rng(profile_ss), cfg.gestures)
        sessions = []
        for k, k_seed in enumerate(session_seeds):
            rng = np.random.default_rng(k_seed)
            shift, gains = _session_transform(rng, k, cfg)
            block_n = _samples(cfg.cycle_block_seconds)
            cycles = []
            for _ in range(cfg.cycles):
                cycle = {}
                for g in range(cfg.gestures):
                    raw = _gesture_block(rng, profiles[g], block_n, cfg.noise_scale)
                    samples = _to_int16(_apply_transform(raw, shift, gains))
                    labels = np.full(block_n, g, dtype=np.int64)
                    cycle[g] = RawRecording(samples=samples, labels=labels)
                cycles.append(cycle)
            evals = [
                _eval_stream(rng, profiles, cfg, shift, gains)
                for _ in range(cfg.eval_recordings)
            ]
            sessions.append(SessionData(subject=s_idx, session=k, cycles=cycles, evals=evals))
        subjects.append(SubjectData(subject=s_idx, sessions=sessions))
    return subjects
