"""Property-based invariants of the hardware latency/energy model."""

import numpy as np
from hypothesis import example, given, strategies as st

from tests.property.budget import prop_settings

from repro.core.representations import RepresentationConfig
from repro.hardware.catalog import DEVICE_CATALOG
from repro.hardware.energy import average_power, energy_per_query
from repro.hardware.latency import estimate_breakdown
from repro.models.configs import KAGGLE

devices = st.sampled_from(sorted(DEVICE_CATALOG))
batches = st.integers(min_value=1, max_value=4096)
ks = st.sampled_from([8, 64, 512, 2048])
dnns = st.sampled_from([32, 128, 480])
hs = st.integers(min_value=0, max_value=4)


def rep_strategy():
    return st.one_of(
        st.just(RepresentationConfig("table", 16)),
        st.builds(
            lambda k, dnn, h: RepresentationConfig("dhe", 16, k=k, dnn=dnn, h=h),
            ks, dnns, hs,
        ),
        st.builds(
            lambda k, dnn, h: RepresentationConfig(
                "hybrid", 24, k=k, dnn=dnn, h=h, table_dim=16, dhe_dim=8
            ),
            ks, dnns, hs,
        ),
    )


@prop_settings(60)
@given(rep=rep_strategy(), device=devices, batch=batches)
def test_breakdown_fields_nonnegative_and_finite(rep, device, batch):
    bd = estimate_breakdown(rep, KAGGLE, DEVICE_CATALOG[device], batch)
    for name, value in bd.as_dict().items():
        assert np.isfinite(value), name
        assert value >= 0.0, name
    assert bd.total > 0.0


@prop_settings(40)
@given(rep=rep_strategy(), device=devices, batch=st.integers(1, 2047))
# Doubling 32 -> 64 crosses the small-GEMM threshold on the V100's MLPs.
@example(rep=RepresentationConfig("table", 16), device="gpu-v100", batch=32)
def test_latency_monotone_in_batch(rep, device, batch):
    spec = DEVICE_CATALOG[device]
    small = estimate_breakdown(rep, KAGGLE, spec, batch).total
    large = estimate_breakdown(rep, KAGGLE, spec, batch * 2).total
    assert large >= small * 0.999


@prop_settings(40)
@given(
    rep=rep_strategy(), device=devices, batch=batches,
    hit=st.floats(min_value=0.0, max_value=1.0),
    speedup=st.floats(min_value=1.0, max_value=100.0),
)
def test_cache_shrinks_the_compute_stack(rep, device, batch, hit, speedup):
    """MP-Cache strictly reduces encoder+decoder time; the total may exceed
    the base only by the hit-serving gathers (a cache lookup can cost more
    than computing a trivially small stack — the paper's caches front
    k~2048 stacks where this never happens)."""
    spec = DEVICE_CATALOG[device]
    base = estimate_breakdown(rep, KAGGLE, spec, batch)
    cached = estimate_breakdown(
        rep, KAGGLE, spec, batch, encoder_hit_rate=hit, decoder_speedup=speedup
    )
    assert cached.encoder <= base.encoder * 1.001
    assert cached.decoder <= base.decoder * 1.001
    hit_gather_budget = (cached.embedding - base.embedding) + 1e-12
    assert cached.total <= base.total + max(hit_gather_budget, 0.0) + 1e-12


@prop_settings(40)
@given(rep=rep_strategy(), device=devices, batch=batches)
def test_power_bounded_by_tdp(rep, device, batch):
    spec = DEVICE_CATALOG[device]
    bd = estimate_breakdown(rep, KAGGLE, spec, batch)
    power = average_power(spec, bd)
    assert spec.idle_w <= power <= spec.tdp_w + 1e-9
    assert energy_per_query(spec, bd) > 0
