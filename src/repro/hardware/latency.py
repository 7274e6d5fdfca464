"""Roofline operator-latency model (Figures 5, 7, 10-17 substrate).

``estimate_breakdown`` decomposes one query's execution into the paper's
operator classes — host serving overhead, input transfer, bottom MLP,
embedding gather, DHE encoder hashing, DHE decoder MLP, feature interaction,
top MLP, kernel launch, and (for sharded placements) interconnect
communication — each timed by ``max(compute-bound, memory-bound)`` with
device-calibrated efficiencies.

Multi-chip platforms follow the semantics documented on ``DeviceSpec``:
``data`` splits the query's batch, ``replicated``/``pipeline`` serve the
whole query on one replica (concurrency handled by the serving simulator),
``sharded`` spreads the embedding work and pays all-to-all communication.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from repro.core.representations import RepresentationConfig
from repro.hardware.device import DeviceSpec
from repro.models.configs import ModelConfig
from repro.models.interactions import DotInteraction

FP32 = 4
ID_BYTES = 8

# TPUEmbedding pipelines lookups behind TensorCore compute (paper O1): only
# this fraction of gather time is exposed.
_TPU_EMBEDDING_EXPOSED = 0.30

# MLP GEMMs with fewer rows than this underfill the device and run at the
# ``small_gemm_factor`` derating.
_FULL_GEMM_ROWS = 64


@dataclass
class OperatorBreakdown:
    """Per-operator seconds for one query on one device."""

    host: float = 0.0
    transfer: float = 0.0
    bottom_mlp: float = 0.0
    embedding: float = 0.0
    encoder: float = 0.0
    decoder: float = 0.0
    interaction: float = 0.0
    top_mlp: float = 0.0
    launch: float = 0.0
    comm: float = 0.0

    @property
    def total(self) -> float:
        return sum(getattr(self, f.name) for f in fields(self))

    @property
    def embedding_access(self) -> float:
        """Everything attributable to producing embedding vectors."""
        return self.embedding + self.encoder + self.decoder

    @property
    def dense_compute(self) -> float:
        return self.bottom_mlp + self.interaction + self.top_mlp

    @property
    def overheads(self) -> float:
        return self.host + self.launch + self.transfer

    def as_dict(self) -> dict[str, float]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def scaled(self, factor: float) -> "OperatorBreakdown":
        return OperatorBreakdown(
            **{f.name: getattr(self, f.name) * factor for f in fields(self)}
        )


def estimate_breakdown(
    rep: RepresentationConfig,
    model: ModelConfig,
    device: DeviceSpec,
    batch_size: int,
    encoder_hit_rate: float = 0.0,
    decoder_speedup: float = 1.0,
) -> OperatorBreakdown:
    """Latency breakdown for one query of ``batch_size`` samples.

    ``encoder_hit_rate`` is the MP-Cache(encoder) hit fraction: hits skip the
    entire encoder-decoder stack (served as a table-like lookup instead).
    ``decoder_speedup`` is the MP-Cache(decoder) factor applied to the
    decoder stack (kNN against centroids instead of the full MLP).
    """
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    if not 0.0 <= encoder_hit_rate <= 1.0:
        raise ValueError("encoder_hit_rate must be in [0, 1]")
    if decoder_speedup < 1.0:
        raise ValueError("decoder_speedup must be >= 1 (it divides decoder time)")

    mode = device.parallelism
    if mode == "data":
        per_chip = _single_chip(device)
        slice_size = max(1, -(-batch_size // device.n_chips))  # ceil division
        bd = _chip_breakdown(
            rep, model, per_chip, slice_size, encoder_hit_rate, decoder_speedup
        )
    elif mode in ("replicated", "pipeline"):
        replica = _replica_spec(device)
        bd = _chip_breakdown(
            rep, model, replica, batch_size, encoder_hit_rate, decoder_speedup
        )
    elif mode == "sharded":
        bd = _sharded_breakdown(
            rep, model, device, batch_size, encoder_hit_rate, decoder_speedup
        )
    else:
        bd = _chip_breakdown(
            rep, model, device, batch_size, encoder_hit_rate, decoder_speedup
        )
    bd.host = device.query_overhead_s
    bd.launch = device.launch_overhead_s
    return bd


def path_latency(
    rep: RepresentationConfig,
    model: ModelConfig,
    device: DeviceSpec,
    batch_size: int,
    encoder_hit_rate: float = 0.0,
    decoder_speedup: float = 1.0,
) -> float:
    """Convenience wrapper returning just the total seconds."""
    return estimate_breakdown(
        rep, model, device, batch_size, encoder_hit_rate, decoder_speedup
    ).total


# ---------------------------------------------------------------------------
# multi-chip spec slicing


def _single_chip(device: DeviceSpec) -> DeviceSpec:
    """One chip's slice of a multi-chip spec (aggregates divided)."""
    chips = max(1, device.n_chips)
    if chips == 1:
        return device
    return replace(
        device,
        peak_flops=device.peak_flops / chips,
        dram_bandwidth=device.dram_bandwidth / chips,
        dram_capacity=device.dram_capacity // chips,
        sram_capacity=device.sram_capacity // chips,
        sram_bandwidth=device.sram_bandwidth / chips,
        n_chips=1,
        replicas=1,
        parallelism="single",
    )


def _replica_spec(device: DeviceSpec) -> DeviceSpec:
    """One replica's resources.

    ``replicated``: a replica is one chip. ``pipeline``: a replica is
    ``n_chips / replicas`` chips whose SRAM aggregates but whose stages run
    sequentially per microbatch (compute at one chip's rate).
    """
    chips = max(1, device.n_chips)
    if device.parallelism == "replicated":
        return _single_chip(device)
    # Pipeline: each replica is a pipeline of n_chips/replicas chips whose
    # SRAM aggregates (the model stages across them); compute runs at one
    # chip's rate per microbatch stage.
    replicas = max(1, device.replicas)
    chips_per_replica = max(1, chips // replicas)
    return replace(
        device,
        peak_flops=device.peak_flops / chips,  # stage-sequential traversal
        dram_bandwidth=device.dram_bandwidth / replicas,
        dram_capacity=device.dram_capacity // replicas,
        sram_capacity=device.sram_per_chip * chips_per_replica,
        sram_bandwidth=device.sram_bandwidth / chips,
        n_chips=1,
        replicas=1,
        parallelism="single",
    )


def _sharded_breakdown(
    rep: RepresentationConfig,
    model: ModelConfig,
    device: DeviceSpec,
    batch_size: int,
    encoder_hit_rate: float,
    decoder_speedup: float,
) -> OperatorBreakdown:
    """All chips cooperate on each query: embedding work splits across the
    shards, dense compute is data-parallel, and embedding vectors cross the
    interconnect (all-to-all) to reach their consumers."""
    chips = max(1, device.n_chips)
    per_chip = _single_chip(device)
    slice_size = max(1, -(-batch_size // chips))
    bd = _chip_breakdown(
        rep, model, per_chip, slice_size, encoder_hit_rate, decoder_speedup
    )
    # The gather/decode work splits by shard rather than by batch slice; the
    # batch-sliced estimate already captures that division. Add the exchange.
    vector_bytes = batch_size * model.n_sparse * rep.embedding_dim * FP32
    if device.interconnect_bw > 0 and chips > 1:
        bd.comm += vector_bytes * (chips - 1) / chips / device.interconnect_bw
    return bd


# ---------------------------------------------------------------------------
# single-chip operator model


def _chip_breakdown(
    rep: RepresentationConfig,
    model: ModelConfig,
    device: DeviceSpec,
    batch_size: int,
    encoder_hit_rate: float,
    decoder_speedup: float,
) -> OperatorBreakdown:
    bd = OperatorBreakdown()

    # Host -> device input transfer (dense floats + sparse IDs).
    if device.host_transfer_bw > 0:
        input_bytes = batch_size * (model.n_dense * FP32 + model.n_sparse * ID_BYTES)
        bd.transfer = input_bytes / device.host_transfer_bw

    # Bottom MLP.
    bottom_sizes = [model.n_dense, *model.bottom_mlp, rep.embedding_dim]
    bd.bottom_mlp = _mlp_time(device, bottom_sizes, batch_size)

    # Embedding table access.
    n_lookups = batch_size * model.n_sparse
    if rep.uses_tables:
        if rep.kind == "hybrid":
            row_dim = rep.table_dim
            lookups = n_lookups
        elif rep.kind == "select":
            row_dim = rep.embedding_dim
            lookups = batch_size * (model.n_sparse - rep.n_dhe_features)
        else:
            row_dim = rep.embedding_dim
            lookups = n_lookups
        table_bytes = rep.table_only_bytes(model)
        bd.embedding = _gather_time(device, lookups, row_dim * FP32, table_bytes)

    # DHE stack (encoder + decoder) over the features that generate.
    if rep.uses_dhe:
        dhe_lookups = (
            batch_size * rep.n_dhe_features
            if rep.kind == "select"
            else n_lookups
        )
        miss = 1.0 - encoder_hit_rate
        hits = dhe_lookups * encoder_hit_rate
        if hits > 0:
            # Cache hits are served as one extra row gather each.
            bd.embedding += _gather_time(
                device, int(hits), rep.embedding_dim * FP32, 0
            )
        if dhe_lookups * miss > 0:
            bd.encoder = _encoder_time(device, rep.k, dhe_lookups * miss)
            decode_flops = rep.decoder_flops_per_lookup() * dhe_lookups * miss
            decoder_weight_bytes = rep.decoder_bytes() * model.n_sparse
            bd.decoder = (
                _gemm_time(device, decode_flops, decoder_weight_bytes, small=True)
                / decoder_speedup
            )

    # Interaction + top MLP.
    inter_flops = DotInteraction.flops(batch_size, rep.embedding_dim, model.n_sparse)
    bd.interaction = inter_flops / (
        device.peak_flops * device.mlp_efficiency * device.small_gemm_factor
    )
    top_sizes = [
        DotInteraction.output_dim(rep.embedding_dim, model.n_sparse),
        *model.top_mlp,
        1,
    ]
    bd.top_mlp = _mlp_time(device, top_sizes, batch_size)
    return bd


def _gemm_time(
    device: DeviceSpec,
    flops: float,
    weight_bytes: float,
    small: bool = False,
) -> float:
    """Dense-matmul time: compute roofline vs. weight-streaming roofline."""
    eff = device.mlp_efficiency * (device.small_gemm_factor if small else 1.0)
    compute = flops / (device.peak_flops * eff)
    bandwidth = (
        device.sram_bandwidth
        if weight_bytes <= device.sram_capacity
        else device.dram_bandwidth
    )
    memory = weight_bytes / bandwidth
    return max(compute, memory)


def _mlp_time(device: DeviceSpec, sizes: list[int], batch_size: int) -> float:
    row_flops = sum(2 * sizes[i] * sizes[i + 1] for i in range(len(sizes) - 1))
    weight_bytes = sum(
        (sizes[i] * sizes[i + 1] + sizes[i + 1]) * FP32 for i in range(len(sizes) - 1)
    )
    full = _gemm_time(device, row_flops * max(batch_size, _FULL_GEMM_ROWS), weight_bytes)
    if batch_size >= _FULL_GEMM_ROWS:
        return full
    # A derated small batch never costs more than padding it to a full GEMM,
    # which keeps MLP time non-decreasing in batch across the threshold.
    small = _gemm_time(device, row_flops * batch_size, weight_bytes, small=True)
    return min(small, full)


def _gather_time(
    device: DeviceSpec,
    n_lookups: int,
    row_bytes: int,
    table_bytes: int,
) -> float:
    """Random-row gather: bandwidth roofline vs. access-latency floor."""
    if n_lookups <= 0:
        return 0.0
    total_bytes = n_lookups * row_bytes
    if device.kind == "ipu":
        if device.fits_in_sram(table_bytes):
            # Whole table in scratchpad SRAM (paper O2 fast path).
            return total_bytes / (device.sram_bandwidth * device.gather_efficiency)
        # Spilled to Streaming Memory: random access over a thin link.
        return total_bytes / (
            device.dram_bandwidth * device.spill_gather_efficiency
        )
    bandwidth_time = total_bytes / (device.dram_bandwidth * device.gather_efficiency)
    latency_time = n_lookups * device.lookup_latency_s
    time = max(bandwidth_time, latency_time)
    if device.embedding_pipelining:
        time *= _TPU_EMBEDDING_EXPOSED
    return time


def _encoder_time(device: DeviceSpec, k: int, n_lookups: float) -> float:
    """Hashing + normalization of ``n_lookups`` IDs through k hash functions.

    Compute is elementwise (poor MXU/AVX mapping — ``elementwise_efficiency``)
    and the [lookups, k] intermediate activations stream through whichever
    memory level holds them.
    """
    if n_lookups <= 0:
        return 0.0
    flops = 4.0 * k * n_lookups
    act_bytes = n_lookups * k * FP32
    compute = flops / (device.peak_flops * device.elementwise_efficiency)
    act_bw = (
        device.sram_bandwidth if act_bytes <= device.sram_capacity
        else device.dram_bandwidth
    )
    memory = act_bytes / act_bw
    return max(compute, memory)
