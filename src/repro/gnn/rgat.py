"""Relational Graph Attention convolution (RGAT, Busbridge et al. 2019).

The ParaGraph model uses three RGAT layers as its graph encoder (§IV-B of the
paper: "the model uses three graph convolution layers based on RGAT").  RGAT
extends GAT to multi-relational graphs: every relation (edge type) has its own
projection matrix and its own attention parameters, and "attention logits are
computed per each edge type" (§III-B).

This implementation follows the ARGAT (across-relation) normalization: the
attention coefficients of *all* edges entering a node — regardless of their
relation — are normalized jointly with a softmax.  ParaGraph's Child-edge
weights enter the layer multiplicatively: each message is scaled by
``1 + w_e`` where ``w_e`` is the (scaled) edge weight, so heavier edges (hot
loop bodies) contribute proportionally more to the embedding, while the
weightless augmentation edges (w = 0) are unaffected.

The autograd forward (training) is fully vectorized over relations: a
cached relation-bucketed :class:`~repro.gnn.edge_layout.RelationalEdgeLayout`
feeds either one stacked batched-matmul projection of all nodes (dense
graphs) or a gather → :func:`~repro.nn.functional.segment_matmul` of only
the rows each relation actually touches (sparse relations), followed by a
fused gather → message → segment-softmax → scatter-add with no Python loop
over relations.  Inference runs :meth:`RGATConv.forward_packed`, a raw-array
kernel over a block-diagonal pack of one or more graphs; in both of its
branches the attention scores are folded node-level projections
``x @ (W · att)``, so no per-edge destination projection is ever built.
The seed per-relation loop lives on in :mod:`repro.gnn.reference` as a test
oracle.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..nn import functional as F
from ..nn import init
from ..nn.module import Parameter
from ..nn.tensor import Tensor, segment_sum_data
from .edge_layout import RelationalEdgeLayout, get_edge_layout
from .message_passing import MessagePassing


class RGATConv(MessagePassing):
    """One relational graph-attention layer.

    Parameters
    ----------
    in_channels, out_channels:
        Input / output node-feature dimensionality.
    num_relations:
        Number of edge types (8 for ParaGraph; 1 collapses to plain GAT).
    heads:
        Number of attention heads; head outputs are concatenated, so the
        effective output width is ``out_channels * heads``.
    negative_slope:
        Slope of the LeakyReLU applied to attention logits.
    use_edge_weight:
        Whether to modulate messages with the ParaGraph edge weights (this is
        the switch the ablation study flips between Augmented AST and full
        ParaGraph).
    add_self_messages:
        Add a learned self-transformation of each node to the aggregated
        messages (keeps information flowing for isolated nodes).
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        num_relations: int,
        heads: int = 1,
        negative_slope: float = 0.2,
        use_edge_weight: bool = True,
        add_self_messages: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if num_relations < 1:
            raise ValueError("num_relations must be >= 1")
        rng = rng or np.random.default_rng()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.num_relations = num_relations
        self.heads = heads
        self.negative_slope = negative_slope
        self.use_edge_weight = use_edge_weight
        self.add_self_messages = add_self_messages

        # one projection and one attention vector pair per relation
        self.weight = Parameter(
            init.xavier_uniform((num_relations, in_channels, heads * out_channels), rng))
        self.att_src = Parameter(
            init.xavier_uniform((num_relations, heads, out_channels), rng))
        self.att_dst = Parameter(
            init.xavier_uniform((num_relations, heads, out_channels), rng))
        if add_self_messages:
            self.self_weight = Parameter(
                init.xavier_uniform((in_channels, heads * out_channels), rng))
        else:
            self.self_weight = None
        self.bias = Parameter(np.zeros(heads * out_channels))

    # ------------------------------------------------------------------ #
    @property
    def output_dim(self) -> int:
        return self.heads * self.out_channels

    #: :class:`~repro.gnn.models.ParaGraphModel` passes its per-forward cached
    #: edge layout to layers advertising this flag.
    accepts_layout = True

    def forward(
        self,
        x: Tensor,
        edge_index: np.ndarray,
        edge_type: Optional[np.ndarray] = None,
        edge_weight: Optional[np.ndarray] = None,
        layout: Optional[RelationalEdgeLayout] = None,
    ) -> Tensor:
        num_nodes = x.shape[0]
        if (layout is None or layout.num_relations != self.num_relations
                or layout.num_nodes != num_nodes):
            # validation (edge_index shape/range, edge_type range) happens
            # once inside the cached layout build, not per layer per forward
            layout = get_edge_layout(edge_index, edge_type, num_nodes,
                                     self.num_relations)
        num_edges = layout.num_edges

        heads, out_channels = self.heads, self.out_channels

        if num_edges == 0:
            aggregated = Tensor(np.zeros((num_nodes, heads * out_channels)),
                                dtype=x.data.dtype)
        else:
            src, dst, rel = layout.src, layout.dst, layout.rel

            # stacked per-relation projection: project every node once per
            # relation in a single batched matmul when the graph is dense
            # enough to amortize it, otherwise project only the gathered
            # source/destination rows relation-block by relation-block
            if self.num_relations * num_nodes <= 2 * num_edges:
                projected = x @ self.weight                  # (R, N, H*C)
                # per-node attention scores first, so per-edge work gathers
                # (E, H) scalars instead of (E, H, C) vectors
                p4 = projected.reshape(self.num_relations, num_nodes,
                                       heads, out_channels)
                score_src = (p4 * self.att_src.reshape(
                    self.num_relations, 1, heads, out_channels)).sum(axis=3)
                score_dst = (p4 * self.att_dst.reshape(
                    self.num_relations, 1, heads, out_channels)).sum(axis=3)
                h_src = projected[(rel, src)].reshape(num_edges, heads,
                                                      out_channels)
                logit = score_src[(rel, src)] + score_dst[(rel, dst)]  # (E, H)
            else:
                h_src = F.segment_matmul(x.index_select(src), self.weight,
                                         layout.offsets)     # (E, H*C)
                h_dst = F.segment_matmul(x.index_select(dst), self.weight,
                                         layout.offsets)
                h_src = h_src.reshape(num_edges, heads, out_channels)
                h_dst = h_dst.reshape(num_edges, heads, out_channels)
                att_src = self.att_src.index_select(rel)     # (E, H, C)
                att_dst = self.att_dst.index_select(rel)
                logit = (h_src * att_src).sum(axis=2) \
                    + (h_dst * att_dst).sum(axis=2)          # (E, H)
            logit = F.leaky_relu(logit, self.negative_slope)

            # across-relation attention normalization per destination node,
            # fused with the ParaGraph edge-weight modulation into a single
            # per-edge coefficient so h_src is scaled exactly once
            alpha = F.segment_softmax(logit, dst, num_nodes)  # (E, H)
            if self.use_edge_weight and edge_weight is not None:
                weights = layout.sort(edge_weight, dtype=x.data.dtype)
                alpha = alpha * Tensor((1.0 + weights)[:, None],
                                       dtype=x.data.dtype)
            weighted = h_src * alpha.reshape(num_edges, heads, 1)
            aggregated = self.aggregate_sum(weighted, dst, num_nodes)
            aggregated = aggregated.reshape(num_nodes, heads * out_channels)

        if self.self_weight is not None:
            aggregated = aggregated + (x @ self.self_weight)
        return aggregated + self.bias

    def _fused_pack(self, dtype):
        """Pre-packed weights for :meth:`forward_packed`.

        ``W2`` is the relation-stacked projection reshaped to ``(F, R*H*C)``
        so the dense branch projects all relations in one BLAS call, and
        ``A_src`` / ``A_dst`` fold the attention vectors into the projection
        (``score = x @ (W · att)``), shape ``(F, R*H)`` — both branches score
        attention from these folded node-level projections and never
        materialise a per-edge or per-relation feature block for it.  Cached
        per conv *and per dtype* (float32 serving and float64 parity calls
        interleave across serving threads), keyed by the identity of the
        (possibly dtype-cast) parameter arrays so a pack lives until the
        weights change; entries are idempotent, so racing builders are safe
        without a lock.
        """
        weight, att_src, att_dst = self.weight.data, self.att_src.data, self.att_dst.data
        key = np.dtype(dtype).str
        cache = self.__dict__.setdefault("_fused_pack_cache", {})
        cached = cache.get(key)
        if cached is not None and cached[0] is weight and cached[1] is att_src \
                and cached[2] is att_dst:
            return cached[3:]
        num_relations, in_channels = weight.shape[0], weight.shape[1]
        heads, out_channels = self.heads, self.out_channels
        w4 = weight.reshape(num_relations, in_channels, heads, out_channels)
        packed_w = np.ascontiguousarray(
            weight.transpose(1, 0, 2).reshape(in_channels, -1))
        packed_a_src = np.ascontiguousarray(
            np.einsum("rfhc,rhc->rfh", w4, att_src)
            .transpose(1, 0, 2).reshape(in_channels, -1))
        packed_a_dst = np.ascontiguousarray(
            np.einsum("rfhc,rhc->rfh", w4, att_dst)
            .transpose(1, 0, 2).reshape(in_channels, -1))
        cache[key] = (weight, att_src, att_dst,
                      packed_w, packed_a_src, packed_a_dst)
        return packed_w, packed_a_src, packed_a_dst

    def forward_packed(self, x: np.ndarray, packed,
                       edge_weight: Optional[np.ndarray] = None) -> np.ndarray:
        """Fused packed-batch kernel: many graphs, one block-diagonal pass.

        *packed* is a :class:`~repro.gnn.packing.PackedLayout`; *x* is the
        concatenated node features, *edge_weight* the concatenated weights in
        original per-graph edge order.  Bit-identity contract (see
        :mod:`repro.gnn.packing`): every BLAS call runs per graph — block
        views with exactly the shapes a pack of that graph alone uses, and
        each graph keeps its own dense/sparse branch decision — while the
        composition-stable per-edge tail (leaky-relu, segment softmax,
        edge-weight scaling, scatter aggregation) runs once over the merged
        layout.  Inference-only: raw arrays, no autodiff.
        """
        layout = packed.layout
        heads, out_channels = self.heads, self.out_channels
        num_nodes = layout.num_nodes
        num_edges = layout.num_edges
        node_offsets = packed.node_offsets
        weight = self.weight.data
        out_dtype = np.result_type(x, weight)
        if num_edges == 0:
            aggregated = np.zeros((num_nodes, heads * out_channels),
                                  dtype=out_dtype)
        else:
            src, dst = layout.src, layout.dst
            packed_w, packed_a_src, packed_a_dst = self._fused_pack(x.dtype)
            # per-node attention scores x @ (W · att), one GEMM pair per
            # graph; rows of edgeless graphs are never gathered
            score_src = np.empty((num_nodes, packed_a_src.shape[1]),
                                 dtype=out_dtype)
            score_dst = np.empty_like(score_src)
            # chunks partition every graph's edges, so each row of h is
            # written exactly once below — the buffer starts uninitialised
            h = np.empty((num_edges, heads, out_channels), dtype=out_dtype)
            flat = h.reshape(num_edges, heads * out_channels)
            for g, chunks in enumerate(packed.chunks):
                if not chunks:
                    continue
                n0, n1 = int(node_offsets[g]), int(node_offsets[g + 1])
                xg = x[n0:n1]
                np.matmul(xg, packed_a_src, out=score_src[n0:n1])
                np.matmul(xg, packed_a_dst, out=score_dst[n0:n1])
                graph_edges = sum(hi - lo for _, lo, hi in chunks)
                if self.num_relations * (n1 - n0) <= 2 * graph_edges:
                    proj = (xg @ packed_w).reshape(-1, heads, out_channels)
                    base = n0 * self.num_relations   # global → graph-local cell
                    for _, lo, hi in chunks:
                        h[lo:hi] = proj[layout.cell_src[lo:hi] - base]
                else:
                    for relation, lo, hi in chunks:
                        np.matmul(x[src[lo:hi]], weight[relation],
                                  out=flat[lo:hi])
            # cell = node * R + relation indexes the (N*R, H) score views
            logit = score_src.reshape(-1, heads)[layout.cell_src] \
                + score_dst.reshape(-1, heads)[layout.cell_dst]
            logit = np.where(logit > 0, logit, self.negative_slope * logit)
            seg_max = layout.segment_reduce(logit, op="max")
            logit -= seg_max[dst]
            np.exp(logit, out=logit)
            denom = layout.segment_reduce(logit, op="sum")
            logit /= (denom + 1e-16)[dst]
            if self.use_edge_weight and edge_weight is not None:
                logit *= (1.0 + layout.sort(edge_weight,
                                            dtype=logit.dtype))[:, None]
            h *= logit[:, :, None]
            messages = h.reshape(num_edges, heads * out_channels)
            matrix = layout.scatter_matrix(messages.dtype)
            if matrix is not None:
                aggregated = np.asarray(matrix @ messages)
            else:               # no scipy: per-graph segment sums, solo order
                aggregated = np.zeros((num_nodes, heads * out_channels),
                                      dtype=out_dtype)
                for g in range(packed.num_graphs):
                    rows = packed.solo_rows(g)
                    if not rows.size:
                        continue
                    n0, n1 = int(node_offsets[g]), int(node_offsets[g + 1])
                    aggregated[n0:n1] = segment_sum_data(
                        messages[rows], dst[rows] - n0, n1 - n0)
        if self.self_weight is not None:
            self_w = self.self_weight.data
            for g in range(packed.num_graphs):
                n0, n1 = int(node_offsets[g]), int(node_offsets[g + 1])
                aggregated[n0:n1] += x[n0:n1] @ self_w
        aggregated += self.bias.data
        return aggregated

    def __repr__(self) -> str:  # pragma: no cover
        return (f"RGATConv({self.in_channels}, {self.out_channels}, "
                f"relations={self.num_relations}, heads={self.heads})")
