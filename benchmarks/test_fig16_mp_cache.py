"""Figure 16: MP-Cache analysis — real numpy execution on the host CPU.

Paper: (a) ID access frequencies follow a power law (hot rows of Kaggle's
largest table see 10K+ accesses); (b) a 2 KB encoder cache already yields
1.57x, a 2 MB cache 1.92x, and the decoder's centroid/kNN tier closes the
~5x encoder-decoder vs. table gap.

This bench *measures wall-clock* on the numpy DHE stack (the one place the
host CPU is the actual device under test) and also reports the analytical
model's cache effect. Ablation rows cover encoder-only / decoder-only /
both, and the centroid-count sweep.

The timing runs in one child interpreter (``python
benchmarks/test_fig16_mp_cache.py`` prints its JSON) with every BLAS /
OpenMP pool pinned to one thread, the garbage collector frozen, and the
exact stack and every variant timed in interleaved rounds, each keeping
its best pass — so a burst of host load hits every variant alike and the
speedup bands compare like with like.  Beside the timed bands, the work
each tier avoids is pinned deterministically: the rows per pass that
still run the DHE encoder stack and the decoder MLP.
"""

import gc
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from conftest import fmt_row

from repro.core.cached_inference import CachedDHE
from repro.core.mp_cache import DecoderCentroidCache, EncoderCache
from repro.data.zipf import ZipfSampler
from repro.embeddings.dhe import DHEEmbedding

DIM = 16
N_IDS = 1_000_000  # stand-in for Kaggle's 10M-row hottest table
ALPHA = 1.15
BATCHES = 30
BATCH_SIZE = 512
ROUNDS = 5  # interleaved timing rounds after the first, measured pass
VARIANTS = (  # label, encoder cache bytes, decoder centroids
    ("encoder-2KB", 2 * 1024, None),
    ("encoder-2MB", 2 * 1024 * 1024, None),
    ("decoder-only-N256", None, 256),
    ("both-2MB-N256", 2 * 1024 * 1024, 256),
    ("both-2MB-N64", 2 * 1024 * 1024, 64),
)
ONE_THREAD = {
    name: "1" for name in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
    )
}


def wall_clock(fn, ids_stream) -> float:
    start = time.perf_counter()
    for ids in ids_stream:
        fn(ids)
    return time.perf_counter() - start


def build(rng_seed=0):
    rng = np.random.default_rng(rng_seed)
    dhe = DHEEmbedding(dim=DIM, k=256, dnn=256, h=2, rng=rng)
    sampler = ZipfSampler(N_IDS, alpha=ALPHA, seed=1)
    stream = [sampler.sample(BATCH_SIZE) for _ in range(BATCHES)]
    return dhe, sampler, stream


def run_fig16() -> dict:
    """Warm each variant and record its deterministic pins (residency,
    approximation error, rows recomputed), then time the exact stack and
    every variant in interleaved rounds, keeping each one's best pass."""
    dhe, sampler, stream = build()

    # (a) power-law access counts.
    counts = np.bincount(np.concatenate(stream), minlength=N_IDS)
    top = np.sort(counts)[::-1]
    n_rows = int(sum(ids.size for ids in stream))

    runners = {"exact stack": dhe}
    best = {"exact stack": wall_clock(dhe, stream)}
    variants = {}
    for label, enc_bytes, n_centroids in VARIANTS:
        cached = CachedDHE(
            dhe,
            encoder_cache=EncoderCache(enc_bytes, DIM) if enc_bytes else None,
            decoder_cache=(
                DecoderCentroidCache(n_centroids, seed=0) if n_centroids else None
            ),
        )
        cached.warm(sampler, profile_samples=2048)
        encoder = cached.encoder_cache
        misses = encoder.misses if encoder else 0
        best[label] = wall_clock(cached.generate, stream)
        # Encoder-cache misses are the rows that still run the DHE
        # encoder stack; without the centroid tier they also run the
        # decoder MLP.
        encoder_rows = encoder.misses - misses if encoder else n_rows
        error = cached.approximation_error(sampler.sample(512))
        variants[label] = {
            "hit_rate": encoder.observed_hit_rate if encoder else 0.0,
            "rel_error": error,
            "encoder_rows": encoder_rows,
            "decoder_mlp_rows": 0 if n_centroids else encoder_rows,
        }
        runners[label] = cached.generate

    gc.collect()
    gc.freeze()
    for _ in range(ROUNDS):
        for label, fn in runners.items():
            best[label] = min(best[label], wall_clock(fn, stream))
    gc.unfreeze()
    for label, row in variants.items():
        row["speedup"] = best["exact stack"] / best[label]
    return {
        "top": [int(top[0]), int(top[99]), int(np.median(top))],
        "n_rows": n_rows,
        "t_exact": best["exact stack"],
        "variants": variants,
    }


def measure_in_child() -> dict:
    """:func:`run_fig16` in a fresh interpreter with one BLAS thread."""
    env = dict(os.environ, **ONE_THREAD)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (src, env.get("PYTHONPATH")) if part
    )
    done = subprocess.run(
        [sys.executable, __file__], env=env, capture_output=True,
        text=True, check=True, timeout=600,
    )
    return json.loads(done.stdout.splitlines()[-1])


def test_fig16_mp_cache(benchmark, record):
    out = benchmark.pedantic(measure_in_child, rounds=1, iterations=1)
    top, n_rows, variants = out["top"], out["n_rows"], out["variants"]

    # Hit rates and approximation errors are deterministic (seeded model
    # + traffic); the measured wall-clock speedups are not and live in
    # the untracked raw record, with their pinned bands as checks.
    lines = [
        "-- (a) access frequency (power law) --",
        fmt_row("hottest id", count=top[0]),
        fmt_row("rank-100 id", count=top[1]),
        fmt_row("median id", count=top[2]),
        "-- (b) cache tiers: residency and approximation (deterministic) --",
    ]
    for label, row in variants.items():
        lines.append(fmt_row(
            label, hit_rate=row["hit_rate"], rel_error=row["rel_error"],
        ))
    lines.append(f"-- (c) work per pass of {n_rows} lookups (deterministic) --")
    lines.append(fmt_row(
        "exact stack", encoder_rows=n_rows, decoder_mlp_rows=n_rows,
    ))
    for label, row in variants.items():
        lines.append(fmt_row(
            label, encoder_rows=row["encoder_rows"],
            decoder_mlp_rows=row["decoder_mlp_rows"],
        ))
    lines.append("paper anchors: 2KB -> 1.57x, 2MB -> 1.92x; decoder kNN "
                 "closes the remaining gap")
    volatile = [
        f"-- best of {ROUNDS + 1} interleaved passes, one BLAS thread, "
        "vs exact encoder-decoder stack --",
        fmt_row("exact stack", seconds=out["t_exact"]),
    ]
    for label, row in variants.items():
        volatile.append(fmt_row(label, speedup=row["speedup"]))

    small, large = variants["encoder-2KB"], variants["encoder-2MB"]
    dec = variants["decoder-only-N256"]
    both = variants["both-2MB-N256"]
    coarse = variants["both-2MB-N64"]
    work = [
        ("encoder cache: fewer rows run the encoder as capacity grows",
         n_rows > small["encoder_rows"] > large["encoder_rows"]),
        ("decoder kNN tier: no row runs the decoder MLP",
         dec["decoder_mlp_rows"] == both["decoder_mlp_rows"] == 0
         and dec["encoder_rows"] == n_rows),
        ("both tiers: as few encoder rows as the 2MB cache alone",
         both["encoder_rows"] == large["encoder_rows"]),
    ]
    checks = work + [
        ("encoder-2KB speedup > 1.1x", small["speedup"] > 1.1),
        ("encoder cache speedup grows with capacity",
         small["speedup"] < large["speedup"]),
        ("encoder-2MB speedup > 1.4x", large["speedup"] > 1.4),
        ("decoder kNN tier alone > 1.2x", dec["speedup"] > 1.2),
        ("both tiers >= each tier alone",
         both["speedup"] >= large["speedup"]
         and both["speedup"] >= dec["speedup"]),
    ]
    record(
        "Figure 16: MP-Cache analysis", lines, volatile=volatile,
        checks=checks,
    )

    # (a) Power law: the hot head dwarfs the median (paper: 10K+ vs ~1).
    assert top[0] > 50 * max(1, top[2])
    # (b)/(c) The pinned work counts and wall-clock bands, enforced.
    assert all(ok for _, ok in checks), checks
    # Encoder-tier outputs are exact.
    assert small["rel_error"] < 1e-9
    assert large["hit_rate"] > small["hit_rate"]
    # Decoder approximation error is bounded; fewer centroids -> coarser.
    assert dec["rel_error"] < 0.9
    assert coarse["rel_error"] >= both["rel_error"] * 0.8


if __name__ == "__main__":
    print(json.dumps(run_fig16()))
