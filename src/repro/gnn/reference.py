"""Seed per-relation-loop forwards of the relational convolutions.

These are the original, loop-over-relations implementations of
:class:`~repro.gnn.rgat.RGATConv` and :class:`~repro.gnn.rgcn.RGCNConv`.
They share no code with either production path — the vectorized autograd
``forward`` (training) or the packed ``forward_packed`` kernel (every
inference) — so they serve as independent test oracles: the parity tests
and the ``gnn-*-parity`` / ``packed-forward-parity`` harness scenarios
assert agreement to float64 precision, and
``benchmarks/test_perf_gnn_forward.py`` measures speedups against them.
"""

from __future__ import annotations

import copy
import functools
from typing import Dict, List, Optional

import numpy as np

from ..nn import functional as F
from ..nn.tensor import Tensor, concatenate
from .message_passing import validate_edge_index
from .rgat import RGATConv
from .rgcn import RGCNConv

__all__ = ["forward_reference", "independent_forwards", "use_reference_convs"]


def _edge_arrays(edge_index, edge_type, edge_weight, num_nodes):
    edge_index = validate_edge_index(edge_index, num_nodes)
    num_edges = edge_index.shape[1]
    if edge_type is None:
        edge_type = np.zeros(num_edges, dtype=np.int64)
    else:
        edge_type = np.asarray(edge_type, dtype=np.int64)
    if edge_weight is None:
        edge_weight = np.zeros(num_edges, dtype=np.float64)
    else:
        edge_weight = np.asarray(edge_weight, dtype=np.float64)
    return edge_index, edge_type, edge_weight


def _rgat_reference(conv: RGATConv, x: Tensor, edge_index, edge_type,
                    edge_weight) -> Tensor:
    num_nodes = x.shape[0]
    edge_index, edge_type, edge_weight = _edge_arrays(
        edge_index, edge_type, edge_weight, num_nodes)
    num_edges = edge_index.shape[1]
    if edge_type.shape != (num_edges,):
        raise ValueError("edge_type must have one entry per edge")
    if edge_type.size and (edge_type.min() < 0
                           or edge_type.max() >= conv.num_relations):
        raise ValueError("edge_type outside [0, num_relations)")

    heads, out_channels = conv.heads, conv.out_channels

    if num_edges == 0:
        aggregated = Tensor(np.zeros((num_nodes, heads * out_channels)))
    else:
        logits_parts: List[Tensor] = []
        messages_parts: List[Tensor] = []
        dst_parts: List[np.ndarray] = []
        for relation in range(conv.num_relations):
            mask = edge_type == relation
            if not mask.any():
                continue
            src = edge_index[0, mask]
            dst = edge_index[1, mask]
            weights = edge_weight[mask]
            # project all nodes with this relation's matrix, then gather
            projected = (x @ conv.weight[relation]).reshape(
                num_nodes, heads, out_channels)
            h_src = projected.index_select(src)          # (e_r, H, C)
            h_dst = projected.index_select(dst)
            logit = (h_src * conv.att_src[relation]).sum(axis=2) \
                + (h_dst * conv.att_dst[relation]).sum(axis=2)   # (e_r, H)
            logit = F.leaky_relu(logit, conv.negative_slope)
            message = h_src
            if conv.use_edge_weight:
                scale = (1.0 + weights)[:, None, None]
                message = message * Tensor(scale)
            logits_parts.append(logit)
            messages_parts.append(message)
            dst_parts.append(dst)

        logits = concatenate(logits_parts, axis=0)          # (E, H)
        messages = concatenate(messages_parts, axis=0)      # (E, H, C)
        dst_all = np.concatenate(dst_parts)
        # across-relation attention normalization per destination node
        alpha = F.segment_softmax(logits, dst_all, num_nodes)   # (E, H)
        weighted = messages * alpha.reshape(alpha.shape[0], heads, 1)
        aggregated = conv.aggregate_sum(weighted, dst_all, num_nodes)
        aggregated = aggregated.reshape(num_nodes, heads * out_channels)

    if conv.self_weight is not None:
        aggregated = aggregated + (x @ conv.self_weight)
    return aggregated + conv.bias


def _rgcn_reference(conv: RGCNConv, x: Tensor, edge_index, edge_type,
                    edge_weight) -> Tensor:
    num_nodes = x.shape[0]
    edge_index, edge_type, edge_weight = _edge_arrays(
        edge_index, edge_type, edge_weight, num_nodes)

    out = x @ conv.root_weight
    for relation in range(conv.num_relations):
        mask = edge_type == relation
        if not mask.any():
            continue
        src = edge_index[0, mask]
        dst = edge_index[1, mask]
        projected = x @ conv.weight[relation]
        messages = projected.index_select(src)
        if conv.use_edge_weight:
            messages = messages * Tensor((1.0 + edge_weight[mask])[:, None])
        out = out + conv.aggregate_mean(messages, dst, num_nodes)
    return out + conv.bias


def forward_reference(conv, x: Tensor, edge_index: np.ndarray,
                      edge_type: Optional[np.ndarray] = None,
                      edge_weight: Optional[np.ndarray] = None,
                      layout=None) -> Tensor:
    """The seed per-relation-loop forward of an RGAT or RGCN *conv*.

    Same call signature as the conv's own ``forward`` (*layout* is
    ignored), and autograd-recording, so gradients can be compared too.
    """
    if isinstance(conv, RGATConv):
        return _rgat_reference(conv, x, edge_index, edge_type, edge_weight)
    if isinstance(conv, RGCNConv):
        return _rgcn_reference(conv, x, edge_index, edge_type, edge_weight)
    raise TypeError(f"no seed reference for {type(conv).__name__}")


def use_reference_convs(model):
    """Route every conv layer of *model* through its seed loop, in place."""
    for conv in model.convs:
        conv.forward = functools.partial(forward_reference, conv)
    return model


def independent_forwards(model, batch) -> Dict[str, np.ndarray]:
    """Float64 outputs of *model* on a collated ``GraphBatch`` from the two
    forwards that share no code with the packed inference kernel: the
    autograd ``forward`` and a copy of the model on the seed loops."""
    seed_model = use_reference_convs(copy.deepcopy(model))
    return {"autograd forward": model.forward(batch).data,
            "seed loops": seed_model.forward(batch).data}
