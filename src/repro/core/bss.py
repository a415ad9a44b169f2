"""Biased systematic sampling (BSS) — the paper's contribution (Sec. V-C).

BSS is systematic sampling with interval C plus a burst-chasing rule:

1. *Pre-sampling*: the first ``n_presamples`` regular samples only build a
   rough running mean; no extras are triggered yet.
2. After that, the threshold is tracked online as
   ``a_th = epsilon * Y_i`` where ``Y_i`` is the running mean over every
   kept sample so far (pre-samples, regular samples, and qualified
   extras), updated once per sampling interval — never in the middle of
   one.
3. Whenever a regular sample exceeds ``a_th``, ``L`` extra samples are
   taken evenly inside the current interval; only the *qualified* ones
   (those ``> a_th``) are kept.

The rationale: 1-burst sojourns above ``a_th`` are heavy-tailed
(Sec. V-B), so one sample above the threshold means the process likely
stays above it — the extras capture exactly the rare large values that
plain systematic sampling misses and that dominate the heavy-tailed mean.

Two implementations share this logic: :class:`BiasedSystematicSampler`
(array-native, used by the experiments) and :class:`OnlineBSS` (a
per-value state machine suitable for streaming deployment).  The array
form gathers the regular stream with one strided slice and finds the
first interval that keeps extras from cumsum-based running means; from
there a blocked speculate-and-verify replay (:func:`_blocked_replay`)
re-derives every later threshold from sequential ``np.cumsum`` sums.
Tests pin both implementations to the original per-granule loop, which
survives as ``BiasedSystematicSampler._reference_sample``, bit for bit.

One deliberate deviation from the paper's wording: extras are spaced
``C/(L+1)`` apart (strictly inside the interval) rather than ``C/L``,
because ``C/L`` spacing would place the L-th extra exactly on the next
regular sampling point and double-count it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.stable import eta_model
from repro.core.base import (
    Sampler,
    SamplingResult,
    check_interval,
    check_offset,
    interval_for_rate,
    series_values,
)
from repro.core.parameters import l_for_xi, threshold_ratio
from repro.errors import DesignError, ParameterError
from repro.utils.rng import normalize_rng
from repro.utils.validation import require_int_at_least, require_positive


def _extra_offsets(interval: int, extra_samples: int) -> np.ndarray:
    """Evenly spaced offsets strictly inside (0, interval)."""
    if extra_samples == 0 or interval < 2:
        return np.empty(0, dtype=np.int64)
    raw = np.round(
        np.arange(1, extra_samples + 1) * interval / (extra_samples + 1.0)
    ).astype(np.int64)
    raw = raw[(raw >= 1) & (raw <= interval - 1)]
    return np.unique(raw)


#: Shared empty (indices, values) pair for instances with no qualified extras.
_NO_EXTRAS = (
    np.empty(0, dtype=np.int64),
    np.empty(0, dtype=np.float64),
)

#: Intervals per block of :func:`_blocked_replay`.
_REPLAY_BLOCK = 2048


def _blocked_replay(
    values: np.ndarray,
    reg_idx: np.ndarray,
    reg_val: np.ndarray,
    offsets: np.ndarray,
    eps: float,
    start: int,
    running_sum: float,
    running_count: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Qualified extras of intervals ``start`` onward, a block at a time.

    ``running_sum`` and ``running_count`` are the exact statistics after
    interval ``start - 1``.  Each block is replayed by speculate and
    verify.  A round guesses which extras the block's remaining intervals
    keep, and gets every interval's running sum from one sequential
    ``np.cumsum`` over the row-major ``[regular, extra…]`` matrix with
    unkept entries zeroed: adding ``+0.0`` does not change a sum's value,
    so each sum equals the reference loop's wherever the guess is right.
    It then recomputes every threshold ``eps * S / C`` and decision, and
    commits the intervals before the first changed decision.  An
    interval's threshold depends only on the decisions before it, so that
    changed decision is itself exact; the next round starts with it, and
    every round commits at least one interval.  A block's first guess
    holds its entering threshold fixed; later rounds reuse the last
    round's decisions.
    """
    n = values.size
    m = reg_idx.size
    width = offsets.size + 1
    threshold = eps * running_sum / running_count
    kept_idx = []
    kept_val = []
    for lo in range(start, m, _REPLAY_BLOCK):
        rows = min(lo + _REPLAY_BLOCK, m) - lo
        ext_t = reg_idx[lo : lo + rows, None] + offsets
        in_range = ext_t < n
        block = np.empty((rows, width))
        block[:, 0] = reg_val[lo : lo + rows]
        block[:, 1:] = values[np.where(in_range, ext_t, 0)]
        # An extra is kept iff its regular sample and itself both exceed
        # the threshold; extras past the series end never are.
        gate = np.minimum(
            block[:, :1], np.where(in_range, block[:, 1:], -np.inf)
        )
        keep = np.empty((rows, width), dtype=bool)
        keep[:, 0] = True
        keep[:, 1:] = gate > threshold
        done = 0
        while done < rows:
            guess = keep[done:]
            summed = np.where(guess, block[done:], 0.0)
            # The reference loop's first addition; the cumsum continues it.
            summed[0, 0] += running_sum
            sums = np.cumsum(summed)[width - 1 :: width]
            counts = running_count + np.cumsum(np.count_nonzero(guess, axis=1))
            # Thresholds entering each interval: a_th updates once per
            # interval, after any extras.
            thresholds = np.empty(rows - done)
            thresholds[0] = threshold
            thresholds[1:] = eps * sums[:-1] / counts[:-1]
            decided = gate[done:] > thresholds[:, None]
            changed = decided != guess[:, 1:]
            first = int(changed.argmax())
            if changed.flat[first]:
                verified = first // (width - 1)
            else:
                verified = rows - done
            running_sum = float(sums[verified - 1])
            running_count = int(counts[verified - 1])
            threshold = eps * running_sum / running_count
            keep[done + verified :, 1:] = decided[verified:]
            done += verified
        kept_idx.append(ext_t[keep[:, 1:]])
        kept_val.append(block[:, 1:][keep[:, 1:]])
    return np.concatenate(kept_idx), np.concatenate(kept_val)


@dataclass(frozen=True)
class BiasedSystematicSampler(Sampler):
    """BSS over an in-memory series.

    Parameters
    ----------
    interval:
        Regular sampling interval C.
    extra_samples:
        L — extra samples per triggered interval.
    epsilon:
        Normalised threshold; ``a_th = epsilon * running_mean``.  The
        paper recommends eps in [1.0, 1.5] (overhead explodes below 0.5).
    threshold:
        Fixed absolute ``a_th``.  When given, pre-sampling and online
        threshold tracking are disabled (used by the unbiased-BSS
        experiments where a_th is designed offline).
    n_presamples:
        Regular samples consumed to seed the running mean before extras
        are enabled.
    offset:
        Systematic starting offset; ``None`` draws uniformly per instance.
    """

    interval: int
    extra_samples: int
    epsilon: float = 1.0
    threshold: float | None = None
    n_presamples: int = 5
    offset: int | None = 0

    name = "bss"

    def __post_init__(self) -> None:
        for field, minimum in (
            ("interval", 1), ("extra_samples", 0), ("n_presamples", 0)
        ):
            value = require_int_at_least(field, getattr(self, field), minimum)
            object.__setattr__(self, field, value)
        require_positive("epsilon", self.epsilon)
        if self.threshold is not None:
            require_positive("threshold", self.threshold)
        object.__setattr__(
            self, "offset", check_offset(self.offset, self.interval)
        )

    # ------------------------------------------------------------- factories
    @classmethod
    def from_rate(cls, rate: float, extra_samples: int, **kwargs):
        """Build from a base sampling rate r (C = round(1/r))."""
        return cls(interval=interval_for_rate(rate),
                   extra_samples=extra_samples, **kwargs)

    @classmethod
    def design(
        cls,
        rate: float,
        alpha: float,
        *,
        cs: float = 0.3,
        epsilon: float = 1.0,
        total_points: int | None = None,
        xi_margin: float = 0.95,
        **kwargs,
    ) -> "BiasedSystematicSampler":
        """The paper's online tuning rule (Sec. V-C, 'without knowledge of eta').

        1. predict ``eta_hat = Cs * r^(1/alpha-1)`` (Eq. 35);
        2. target bias ``xi = 1/(1 - eta_hat)``;
        3. invert Eq. (30) for L given eps (default 1.0).

        When the target xi exceeds the attainable maximum (xi < m is
        required), it is clamped to ``xi_margin * (m - 1) + 1``.
        """
        eta_hat = float(eta_model([rate], alpha, cs, total_points=total_points)[0])
        m = threshold_ratio(epsilon, alpha)
        xi_target = 1.0 / (1.0 - eta_hat)
        xi_cap = 1.0 + xi_margin * (m - 1.0)
        xi_target = min(xi_target, xi_cap)
        if xi_target <= 1.0:
            extra = 0
        else:
            try:
                # Round to nearest: a raw L below 0.5 means the predicted
                # gap is too small to justify extras — fall back to plain
                # systematic sampling rather than inject bias.
                extra = int(round(l_for_xi(xi_target, epsilon, alpha)))
            except DesignError:
                extra = 0
        return cls.from_rate(rate, extra, epsilon=epsilon, **kwargs)

    @property
    def rate(self) -> float:
        """Base (regular-sample) rate, excluding extras."""
        return 1.0 / self.interval

    # -------------------------------------------------------------- sampling
    def sample(self, process, rng=None) -> SamplingResult:
        """Draw one BSS instance, array-native.

        The regular-sample stream is extracted with one strided gather and
        its running statistics with ``np.cumsum``.  The fixed-``threshold``
        path has no loop at all; the online path replays the intervals
        from the first one that keeps extras in blocks, with a loop over
        rounds but none over intervals.  ``_reference_sample`` keeps the
        original per-granule loop and the parity tests pin the two
        together bit-for-bit.
        """
        values = series_values(process)
        n = values.size
        interval = check_interval(self.interval, n)
        if self.offset is None:
            offset = int(normalize_rng(rng).integers(0, interval))
        else:
            offset = self.offset

        offsets = _extra_offsets(interval, self.extra_samples)
        reg_idx = np.arange(offset, n, interval, dtype=np.int64)
        reg_val = values[reg_idx]
        m = reg_idx.size

        if not offsets.size:
            qual_idx, qual_val = _NO_EXTRAS
        elif self.threshold is not None:
            qual_idx, qual_val = self._fixed_threshold_extras(
                values, reg_idx, reg_val, offsets
            )
        else:
            qual_idx, qual_val = self._online_threshold_extras(
                values, reg_idx, reg_val, offsets
            )

        all_idx = np.concatenate([reg_idx, qual_idx])
        all_val = np.concatenate([reg_val, qual_val])
        order = np.argsort(all_idx, kind="stable")
        return SamplingResult(
            indices=all_idx[order],
            values=all_val[order],
            n_population=n,
            method=self.name,
            n_base=m,
        )

    def _fixed_threshold_extras(
        self,
        values: np.ndarray,
        reg_idx: np.ndarray,
        reg_val: np.ndarray,
        offsets: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Qualified extras for a fixed a_th — fully vectorized.

        With a constant threshold each triggered interval is independent:
        one 2-D index-matrix gather evaluates every candidate extra at
        once.
        """
        threshold = self.threshold
        if not offsets.size:
            return _NO_EXTRAS
        trig_t = reg_idx[reg_val > threshold]
        if not trig_t.size:
            return _NO_EXTRAS
        cand = trig_t[:, None] + offsets[None, :]
        keep = cand < values.size
        cand = cand[keep]
        cand_val = values[cand]
        qualified = cand_val > threshold
        return cand[qualified], cand_val[qualified]

    def _online_threshold_extras(
        self,
        values: np.ndarray,
        reg_idx: np.ndarray,
        reg_val: np.ndarray,
        offsets: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Qualified extras under the online running-mean threshold.

        Until some interval *keeps* an extra, the running statistics are
        exactly the regular-sample prefix sums, so the threshold entering
        regular sample i is ``eps * cumsum_reg[i-1] / i`` (for
        ``i >= max(n_presamples, 1)``) and the whole trigger mask is one
        cumsum-based vector comparison; triggered intervals whose extras
        all fail to qualify leave the statistics untouched, so the frozen
        pass stays exact up to (and including) the first interval that
        keeps extras.  :func:`_blocked_replay` takes over at that
        interval, from the regular-sample prefix sums before it.
        """
        n = values.size
        m = reg_idx.size
        eps = self.epsilon
        # First index at which the trigger comparison is live: the value
        # must be past warm-up (seen_regular > n_presamples) and a finite
        # threshold must exist (set after seen_regular >= n_presamples,
        # hence from index max(P, 1) onward).
        first_live = max(self.n_presamples, 1)
        if first_live >= m:
            return _NO_EXTRAS
        cum_reg = np.cumsum(reg_val)
        counts = np.arange(first_live, m, dtype=np.float64)
        th0 = eps * cum_reg[first_live - 1 : m - 1] / counts
        trig = np.flatnonzero(reg_val[first_live:] > th0) + first_live
        if not trig.size:
            return _NO_EXTRAS
        # Evaluate every frozen-trigger interval's extras in one 2-D
        # index-matrix gather.  Offsets lie strictly inside the interval,
        # so only the final interval can reach past the series end.
        ext_t = reg_idx[trig][:, None] + offsets[None, :]
        in_range = ext_t < n
        ext_v = values[np.where(in_range, ext_t, 0)]
        kept = in_range & (ext_v > th0[trig - first_live, None])
        keep_rows = np.flatnonzero(kept.any(axis=1))
        if not keep_rows.size:
            # No interval keeps extras: the frozen pass is the exact run.
            return _NO_EXTRAS
        # The first keeping interval saw undisturbed statistics: the
        # regular prefix sums.  Replay from it onward.
        pivot = int(trig[keep_rows[0]])
        return _blocked_replay(
            values, reg_idx, reg_val, offsets, eps,
            pivot, float(cum_reg[pivot - 1]), pivot,
        )

    def _reference_sample(self, process, rng=None) -> SamplingResult:
        """Original per-granule loop implementation (kept for parity tests)."""
        values = series_values(process)
        n = values.size
        interval = check_interval(self.interval, n)
        if self.offset is None:
            offset = int(normalize_rng(rng).integers(0, interval))
        else:
            offset = self.offset

        offsets = _extra_offsets(interval, self.extra_samples)
        fixed_threshold = self.threshold is not None

        indices: list[int] = []
        sample_values: list[float] = []
        qualified_idx: list[int] = []
        qualified_val: list[float] = []

        running_sum = 0.0
        running_count = 0
        threshold = self.threshold if fixed_threshold else np.inf
        seen_regular = 0

        for t in range(offset, n, interval):
            value = float(values[t])
            indices.append(t)
            sample_values.append(value)
            running_sum += value
            running_count += 1
            seen_regular += 1

            warmed_up = fixed_threshold or seen_regular > self.n_presamples
            if warmed_up and value > threshold and offsets.size:
                for delta in offsets:
                    extra_t = t + int(delta)
                    if extra_t >= n:
                        break
                    extra_value = float(values[extra_t])
                    if extra_value > threshold:
                        qualified_idx.append(extra_t)
                        qualified_val.append(extra_value)
                        running_sum += extra_value
                        running_count += 1
            # Threshold update happens once per interval, after any extras.
            if not fixed_threshold and seen_regular >= self.n_presamples:
                threshold = self.epsilon * running_sum / max(running_count, 1)

        all_idx = np.asarray(indices + qualified_idx, dtype=np.int64)
        all_val = np.asarray(sample_values + qualified_val, dtype=np.float64)
        order = np.argsort(all_idx, kind="stable")
        return SamplingResult(
            indices=all_idx[order],
            values=all_val[order],
            n_population=n,
            method=self.name,
            n_base=len(indices),
        )


class OnlineBSS:
    """Streaming BSS: feed granule values one at a time with :meth:`observe`.

    The state machine reproduces :class:`BiasedSystematicSampler` exactly
    (a test pins the two together) while touching each granule once and
    keeping O(samples) memory — the form a measurement device would run.
    """

    def __init__(
        self,
        interval: int,
        extra_samples: int,
        *,
        epsilon: float = 1.0,
        threshold: float | None = None,
        n_presamples: int = 5,
        offset: int = 0,
    ) -> None:
        self._config = BiasedSystematicSampler(
            interval=interval,
            extra_samples=extra_samples,
            epsilon=epsilon,
            threshold=threshold,
            n_presamples=n_presamples,
            offset=offset,
        )
        self._offsets = set(
            _extra_offsets(
                self._config.interval, self._config.extra_samples
            ).tolist()
        )
        self._t = -1
        self._running_sum = 0.0
        self._running_count = 0
        self._threshold = threshold if threshold is not None else np.inf
        self._fixed = threshold is not None
        self._seen_regular = 0
        self._chasing = False
        self._indices: list[int] = []
        self._values: list[float] = []
        self._n_base = 0

    @property
    def threshold(self) -> float:
        """Current a_th (inf while warming up without a fixed threshold)."""
        return self._threshold

    @property
    def n_samples(self) -> int:
        return len(self._indices)

    def observe(self, value: float) -> bool:
        """Advance one granule; return True if this granule was kept."""
        self._t += 1
        cfg = self._config
        phase = (self._t - cfg.offset) % cfg.interval
        is_regular = self._t >= cfg.offset and phase == 0

        if is_regular:
            # Close the previous interval: update a_th before consuming the
            # new regular sample's interval (paper: update only at interval
            # boundaries).
            if (
                not self._fixed
                and self._seen_regular >= cfg.n_presamples
                and self._running_count > 0
            ):
                self._threshold = (
                    cfg.epsilon * self._running_sum / max(self._running_count, 1)
                )
            value = float(value)
            self._indices.append(self._t)
            self._values.append(value)
            self._n_base += 1
            self._running_sum += value
            self._running_count += 1
            self._seen_regular += 1
            warmed = self._fixed or self._seen_regular > cfg.n_presamples
            self._chasing = bool(warmed and value > self._threshold)
            return True

        if self._chasing and phase in self._offsets and self._t >= cfg.offset:
            value = float(value)
            if value > self._threshold:
                self._indices.append(self._t)
                self._values.append(value)
                self._running_sum += value
                self._running_count += 1
                return True
        return False

    def process(self, stream) -> int:
        """Consume an iterable of values; returns the number kept."""
        kept = 0
        for value in stream:
            kept += bool(self.observe(value))
        return kept

    def result(self) -> SamplingResult:
        """Snapshot the samples collected so far."""
        n_population = self._t + 1
        if n_population <= 0:
            raise ParameterError("no values observed yet")
        return SamplingResult(
            indices=np.asarray(self._indices, dtype=np.int64),
            values=np.asarray(self._values, dtype=np.float64),
            n_population=n_population,
            method="bss_online",
            n_base=self._n_base,
        )
