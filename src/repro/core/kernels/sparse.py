"""The sparse core kernels: ``spmm``, ``SpGEMM`` and the fused
message-passing aggregate ``fusedGatherScatter``.

``spmm`` multiplies a sparse adjacency (CSR) by a dense feature matrix —
the fused aggregate of DGL-style execution — with an optional epilogue
(row-broadcast bias, then activation) folded in the way ``sgemm``'s
cuBLAS-style epilogue folds its stages.  ``SpGEMM`` multiplies two
sparse matrices — the adjacency-normalisation chain of the paper's
Fig. 2 (``D^-1/2 * A * D^-1/2``).  ``fused_gather_scatter`` is the
plan-level-fusion entry point for the MP side: one launch that streams
per-edge messages from gather straight into the scatter reduction
(:func:`repro.core.kernels.scatter.streaming_reduce`) instead of
materialising the ``[E, f]`` intermediate between two launches.
``transform_spmm`` is the cross-layer entry point: the dense layer
transform (``sgemm`` arithmetic, epilogue included) feeding straight
into the next layer's aggregation ``adjacency @ h`` without the
transformed features round-tripping through DRAM between launches.
"""

from __future__ import annotations

import math
import time
from typing import Optional

import numpy as np

from repro.core.kernels import launch as L
from repro.core.kernels.costmodel import EPILOGUE_FP32_PER_ELEMENT, mix_for
from repro.core.kernels.scatter import REDUCE_OPS, STREAM_BLOCK_BYTES, \
    streaming_reduce
from repro.errors import KernelError
from repro.graph.formats import CSRMatrix

__all__ = ["spmm", "spgemm", "fused_gather_scatter", "transform_spmm"]


def spmm(adjacency: CSRMatrix, dense: np.ndarray,
         bias: Optional[np.ndarray] = None, tag: str = "",
         activation: Optional[str] = None) -> np.ndarray:
    """Sparse x dense product ``adjacency @ dense``, optional epilogue.

    Parameters
    ----------
    adjacency:
        CSR matrix ``[n, n]`` (row = destination node).
    dense:
        Float matrix ``[n, f]`` of node features.
    bias:
        Optional length-``f`` vector added to every output row inside
        this launch (cuBLAS-epilogue style, mirroring ``sgemm``).
    tag:
        Optional label copied onto the emitted :class:`KernelLaunch`.
    activation:
        Optional epilogue activation applied to the finished output
        inside this launch, *after* the float32 cast — bit-for-bit what
        a separate bias-add + activation over the plain product would
        produce.  The launch record carries the epilogue's extra
        arithmetic and a ``replaces`` entry naming the plain spmm
        launch it stands in for.
    """
    if not isinstance(adjacency, CSRMatrix):
        raise KernelError(
            f"spmm expects a CSRMatrix, got {type(adjacency).__name__}"
        )
    dense = np.asarray(dense, dtype=np.float32)
    if dense.ndim != 2:
        raise KernelError(f"spmm expects a 2-D dense operand, got {dense.ndim}-D")
    if dense.shape[0] != adjacency.shape[1]:
        raise KernelError(
            f"spmm dimension mismatch: {adjacency.shape} x {dense.shape}"
        )
    if bias is not None:
        bias = np.asarray(bias, dtype=np.float32)
        if bias.shape != (dense.shape[1],):
            raise KernelError(
                f"bias must have shape ({dense.shape[1]},), got {bias.shape}"
            )

    start = time.perf_counter()
    out = adjacency.matmul(dense)
    if bias is not None:
        out += bias
    if activation:
        from repro.core.models.activations import activate_inplace
        out = activate_inplace(activation, out)
    duration = time.perf_counter() - start

    recorder = L.active_recorder()
    if recorder is not None:
        _emit_spmm(recorder, adjacency, dense, out, duration, tag,
                   epilogue=activation or "")
    return out


def _emit_spmm(recorder: L.LaunchRecorder, adjacency: CSRMatrix,
               dense: np.ndarray, out: np.ndarray, duration: float,
               tag: str, epilogue: str = "") -> None:
    nnz = adjacency.nnz
    f = dense.shape[1]
    row_bytes = f * L.FLOAT_BYTES
    units = float(nnz) * f

    stride = L.sample_stride(nnz, max(1, recorder.sample_cap // max(1, row_bytes // L.LINE_BYTES + 1)))
    sampled_cols = adjacency.indices[::stride]
    fraction = (sampled_cols.size / nnz) if nnz else 1.0

    structure_base = recorder.new_region()
    values_base = recorder.new_region()
    dense_base = recorder.new_region()
    out_base = recorder.new_region()
    cap = recorder.sample_cap
    loads = np.concatenate([
        L.sequential_lines(structure_base,
                           (adjacency.indptr.size + nnz) * L.FLOAT_BYTES, cap),
        L.sequential_lines(values_base, nnz * L.FLOAT_BYTES, cap),
        L.row_lines(dense_base, sampled_cols, row_bytes),
    ])
    stores = L.sequential_lines(out_base, out.size * L.FLOAT_BYTES, cap)

    mix = mix_for("spmm", units)
    if epilogue:
        # Epilogue stages run in registers before the store (the sgemm
        # emitter's convention): arithmetic joins the mix, no traffic.
        mix.fp32 += EPILOGUE_FP32_PER_ELEMENT * out.size
    recorder.emit(L.KernelLaunch(
        kernel="spmm",
        short_form="sp",
        model="SpMM",
        threads=max(1, out.size),
        mix=mix,
        loads=loads,
        stores=stores,
        flops=2.0 * units + (float(out.size) if epilogue else 0.0),
        bytes_read=float(L.FLOAT_BYTES) * (nnz * (2 + f) + adjacency.indptr.size),
        bytes_written=float(out.size * L.FLOAT_BYTES),
        duration_s=duration,
        sample_fraction=fraction,
        active_lanes=min(L.WARP_SIZE, max(1, f)),
        tag=tag,
        replaces=(f"spmm:{tag}",) if epilogue else (),
        epilogue=epilogue,
    ))


def transform_spmm(a: np.ndarray, b: np.ndarray, adjacency: CSRMatrix,
                   bias: Optional[np.ndarray] = None,
                   activation: Optional[str] = None,
                   sgemm_tag: str = "", tag: str = "") -> np.ndarray:
    """Cross-layer fusion: ``adjacency @ act(a @ b + bias)`` in one launch.

    The dense layer transform — exactly ``sgemm``'s arithmetic,
    epilogue included, so the intermediate is bit-for-bit the unfused
    transform output — feeds straight into the next layer's SpMM
    aggregation; the transformed feature matrix stays on-chip instead
    of round-tripping through DRAM between two launches.  ``sgemm_tag``
    / ``tag`` name the replaced sgemm / spmm launches for the fusion
    trace mapping.
    """
    a = np.asarray(a, dtype=np.float32)
    b = np.asarray(b, dtype=np.float32)
    if a.ndim != 2 or b.ndim != 2:
        raise KernelError(
            f"transformSpmm expects 2-D dense operands, got {a.ndim}-D "
            f"and {b.ndim}-D")
    if a.shape[1] != b.shape[0]:
        raise KernelError(
            f"transformSpmm dimension mismatch: {a.shape} x {b.shape}")
    if not isinstance(adjacency, CSRMatrix):
        raise KernelError(
            f"transformSpmm expects a CSRMatrix, got "
            f"{type(adjacency).__name__}")
    if adjacency.shape[1] != a.shape[0]:
        raise KernelError(
            f"transformSpmm dimension mismatch: {adjacency.shape} x "
            f"[{a.shape[0]}, {b.shape[1]}]")
    if bias is not None:
        bias = np.asarray(bias, dtype=np.float32)
        if bias.shape != (b.shape[1],):
            raise KernelError(
                f"bias must have shape ({b.shape[1]},), got {bias.shape}")

    start = time.perf_counter()
    # Replicate the sgemm kernel's exact operation order (product, bias,
    # float32 cast, activation) so the on-chip intermediate is bitwise
    # the unfused transform output, then aggregate it.
    h = a @ b
    if bias is not None:
        h += bias
    if activation:
        from repro.core.models.activations import activate_inplace
        h = activate_inplace(activation, h)
    out = adjacency.matmul(h)
    duration = time.perf_counter() - start

    recorder = L.active_recorder()
    if recorder is not None:
        _emit_transform_spmm(recorder, a, b, adjacency, h, out, duration,
                             sgemm_tag, tag, epilogue=activation or "")
    return out


def _emit_transform_spmm(recorder: L.LaunchRecorder, a, b,
                         adjacency: CSRMatrix, h, out, duration: float,
                         sgemm_tag: str, tag: str,
                         epilogue: str = "") -> None:
    """Launch record of one cross-layer transform+SpMM.

    Operands may be geometry-only stand-ins.  The instruction mix is
    the sum of the two stages it fuses; the memory trace carries the
    GEMM operand sweeps and the adjacency structure/values, but not the
    transformed feature rows — the intermediate stays on-chip, which is
    exactly the traffic this fusion eliminates.  ``replaces`` restores
    the legacy two-launch sequence for the trace mapping.
    """
    n, k = a.shape
    m = b.shape[1]
    fmas = float(n) * k * m
    nnz = adjacency.nnz
    units = float(nnz) * m

    a_base = recorder.new_region()
    b_base = recorder.new_region()
    structure_base = recorder.new_region()
    values_base = recorder.new_region()
    out_base = recorder.new_region()
    cap = recorder.sample_cap
    loads = np.concatenate([
        L.sequential_lines(a_base, a.size * L.FLOAT_BYTES, cap),
        L.sequential_lines(b_base, b.size * L.FLOAT_BYTES, cap),
        L.sequential_lines(structure_base,
                           (adjacency.indptr.size + nnz) * L.FLOAT_BYTES,
                           cap),
        L.sequential_lines(values_base, nnz * L.FLOAT_BYTES, cap),
    ])
    stores = L.sequential_lines(out_base, out.size * L.FLOAT_BYTES, cap)

    mix = mix_for("sgemm", fmas)
    spmm_mix = mix_for("spmm", units)
    mix.fp32 += spmm_mix.fp32
    mix.int_ops += spmm_mix.int_ops
    mix.ldst += spmm_mix.ldst
    mix.control += spmm_mix.control
    mix.other += spmm_mix.other
    if epilogue:
        mix.fp32 += EPILOGUE_FP32_PER_ELEMENT * h.size
    row_tiles = math.ceil(n / 32)
    col_tiles = math.ceil(m / 32)
    recorder.emit(L.KernelLaunch(
        kernel="transformSpmm",
        short_form="ts",
        model="SpMM",
        threads=max(1, out.size),
        mix=mix,
        loads=loads,
        stores=stores,
        flops=2.0 * fmas + 2.0 * units
            + (float(h.size) if epilogue else 0.0),
        bytes_read=float(L.FLOAT_BYTES) * (
            a.size * col_tiles + b.size * row_tiles
            + nnz * 2 + adjacency.indptr.size),
        bytes_written=float(out.size * L.FLOAT_BYTES),
        duration_s=duration,
        sample_fraction=1.0,
        active_lanes=min(L.WARP_SIZE, max(1, m)),
        tag=tag,
        replaces=(f"sgemm:{sgemm_tag}", f"spmm:{tag}"),
        epilogue=epilogue,
    ))


def fused_gather_scatter(source: np.ndarray, src_index: np.ndarray,
                         dst_index: np.ndarray, dim_size: int,
                         scale: Optional[np.ndarray] = None,
                         reduce: str = "sum", tag: str = "",
                         gather_tag: Optional[str] = None,
                         block_bytes: int = STREAM_BLOCK_BYTES) -> np.ndarray:
    """Fused message passing: gather + (scale +) scatter in one launch.

    Numerically identical — bit-for-bit — to
    ``scatter(index_select(source, src_index) * scale[:, None],
    dst_index, dim_size, reduce)``, but the per-edge message matrix is
    streamed through destination-range blocks of at most
    ``block_bytes`` instead of being materialised whole (see
    :func:`repro.core.kernels.scatter.streaming_reduce` for the
    exactness argument).

    Parameters
    ----------
    source:
        2-D float node-embedding matrix ``[n, f]``.
    src_index / dst_index:
        Per-edge source and destination node ids (equal length).
    dim_size:
        Number of output slots (destination nodes).
    scale:
        Optional per-edge weight vector applied to the gathered rows.
    reduce:
        One of ``"sum"``, ``"mean"``, ``"max"``, ``"min"``.
    tag / gather_tag:
        Labels of the scatter / gather launches this fused launch
        replaces (``gather_tag`` defaults to ``tag``); recorded on the
        launch's ``replaces`` for the fusion trace mapping.
    """
    source = np.asarray(source)
    src_index = np.asarray(src_index)
    dst_index = np.asarray(dst_index)
    if source.ndim != 2:
        raise KernelError(
            f"fusedGatherScatter expects a 2-D source, got {source.ndim}-D")
    if src_index.ndim != 1 or dst_index.ndim != 1:
        raise KernelError("fusedGatherScatter indices must be 1-D")
    if src_index.shape[0] != dst_index.shape[0]:
        raise KernelError(
            f"src/dst index length mismatch: {src_index.shape[0]} vs "
            f"{dst_index.shape[0]}")
    for name, index in (("src", src_index), ("dst", dst_index)):
        if index.size and not np.issubdtype(index.dtype, np.integer):
            raise KernelError(
                f"{name} index must be integral, got dtype {index.dtype}")
    if src_index.size and (int(src_index.min()) < 0
                           or int(src_index.max()) >= source.shape[0]):
        raise KernelError("src index out of range")
    if dst_index.size and (int(dst_index.min()) < 0
                           or int(dst_index.max()) >= int(dim_size)):
        raise KernelError("dst index out of range")
    if scale is not None:
        scale = np.asarray(scale)
        if scale.shape != (src_index.shape[0],):
            raise KernelError(
                f"scale must have shape ({src_index.shape[0]},), "
                f"got {scale.shape}")
    if reduce not in REDUCE_OPS:
        raise KernelError(
            f"unknown reduce {reduce!r}; expected one of {REDUCE_OPS}")

    start = time.perf_counter()
    out = streaming_reduce(source, src_index, dst_index, int(dim_size),
                           reduce=reduce, scale=scale,
                           block_bytes=block_bytes)
    duration = time.perf_counter() - start

    recorder = L.active_recorder()
    if recorder is not None:
        _emit_fused_gather_scatter(
            recorder, source, src_index, dst_index, out, scale, reduce,
            duration, tag, tag if gather_tag is None else gather_tag)
    return out


def _emit_fused_gather_scatter(recorder: L.LaunchRecorder,
                               source, src_index: np.ndarray,
                               dst_index: np.ndarray, out,
                               scale, reduce: str, duration: float,
                               tag: str, gather_tag: str) -> None:
    """Launch record of one fused gather-scatter.

    Operands may be geometry-only stand-ins (the sharding dispatcher's
    canonical emission) — only shapes, sizes and the index arrays are
    read.  The memory trace carries the gathered source rows and the
    scattered destination rows; the intermediate message matrix never
    reaches DRAM, which is exactly the traffic fusion eliminates.
    """
    edges = int(src_index.size)
    width = source.shape[1] if source.ndim == 2 else 1
    row_bytes = width * L.FLOAT_BYTES
    elements = float(edges) * width

    stride = L.sample_stride(edges, max(
        1, recorder.sample_cap // max(1, row_bytes // L.LINE_BYTES + 1)))
    sampled_src = src_index[::stride]
    sampled_dst = dst_index[::stride]
    fraction = (sampled_src.size / edges) if edges else 1.0

    source_base = recorder.new_region()
    index_base = recorder.new_region()
    out_base = recorder.new_region()
    loads = np.concatenate([
        L.sequential_lines(index_base,
                           2 * edges * L.FLOAT_BYTES + (
                               edges * L.FLOAT_BYTES if scale is not None
                               else 0),
                           recorder.sample_cap),
        L.row_lines(source_base, np.asarray(sampled_src, dtype=np.int64),
                    row_bytes),
    ])
    stores = L.row_lines(out_base, np.asarray(sampled_dst, dtype=np.int64),
                         row_bytes)

    scale_elements = edges if scale is not None else 0
    recorder.emit(L.KernelLaunch(
        kernel="fusedGatherScatter",
        short_form="fg",
        model="MP",
        threads=max(1, int(elements)),
        mix=mix_for("fusedGatherScatter", elements + scale_elements),
        loads=loads,
        stores=stores,
        flops=elements + scale_elements,
        bytes_read=float(L.FLOAT_BYTES) * (
            elements + 2 * edges + scale_elements),
        bytes_written=float(out.size * L.FLOAT_BYTES),
        duration_s=duration,
        sample_fraction=fraction,
        atomic=True,
        active_lanes=min(L.WARP_SIZE, max(1, width)),
        tag=tag or reduce,
        # The scatter emitter defaults an empty tag to the reduce name;
        # the mapping must mirror that or legacy_trace() diverges from
        # the unfused launch stream on untagged ops.
        replaces=(f"indexSelect:{gather_tag}", f"scatter:{tag or reduce}"),
    ))


def spgemm(a: CSRMatrix, b: CSRMatrix, tag: str = "") -> CSRMatrix:
    """Sparse x sparse product ``a @ b`` in CSR form.

    Parameters
    ----------
    a, b:
        Conforming CSR matrices.
    tag:
        Optional label copied onto the emitted :class:`KernelLaunch`.
    """
    if not isinstance(a, CSRMatrix) or not isinstance(b, CSRMatrix):
        raise KernelError("spgemm expects two CSRMatrix operands")
    if a.shape[1] != b.shape[0]:
        raise KernelError(f"spgemm dimension mismatch: {a.shape} x {b.shape}")

    start = time.perf_counter()
    out = a.spgemm(b)
    duration = time.perf_counter() - start

    recorder = L.active_recorder()
    if recorder is not None:
        _emit_spgemm(recorder, a, b, out, duration, tag)
    return out


def _emit_spgemm(recorder: L.LaunchRecorder, a: CSRMatrix, b: CSRMatrix,
                 out: CSRMatrix, duration: float, tag: str) -> None:
    # Expansion size: every stored (i, k) of A visits the whole row k of B.
    b_row_len = b.row_lengths()
    expansion = float(b_row_len[a.indices].sum()) if a.nnz else 0.0
    avg_b_row_bytes = max(
        L.FLOAT_BYTES,
        int(2 * L.FLOAT_BYTES * (b.nnz / max(1, b.shape[0]))),
    )

    stride = L.sample_stride(a.nnz, max(1, recorder.sample_cap // 4))
    sampled_rows = a.indices[::stride]
    fraction = (sampled_rows.size / a.nnz) if a.nnz else 1.0

    a_base = recorder.new_region()
    b_base = recorder.new_region()
    out_base = recorder.new_region()
    cap = recorder.sample_cap
    loads = np.concatenate([
        L.sequential_lines(a_base, 2 * a.nnz * L.FLOAT_BYTES, cap),
        L.row_lines(b_base, sampled_rows, avg_b_row_bytes),
    ])
    stores = L.sequential_lines(out_base, 2 * out.nnz * L.FLOAT_BYTES, cap)

    recorder.emit(L.KernelLaunch(
        kernel="SpGEMM",
        short_form="sp",
        model="SpMM",
        threads=max(1, int(expansion)),
        mix=mix_for("SpGEMM", expansion),
        loads=loads,
        stores=stores,
        flops=2.0 * expansion,
        bytes_read=float(L.FLOAT_BYTES) * (2 * a.nnz + 2 * b.nnz),
        bytes_written=float(2 * out.nnz * L.FLOAT_BYTES),
        duration_s=duration,
        sample_fraction=fraction,
        active_lanes=min(
            L.WARP_SIZE, max(1, int(b.nnz / max(1, b.shape[0])))
        ),
        tag=tag,
    ))
