"""Spatiotemporal-Aware Embedding Layer (StAEL) — paper Section II-B.

For every feature *field* j, a gate attention computes a spatiotemporal
weight

    alpha_j = 2 * sigmoid(W_p [x_j ; x_c] + b_p)        (paper Eq. 6)

from the field's own embedding ``x_j`` and the spatiotemporal context field
embedding ``x_c``.  The field representation is then scaled,
``h_j = alpha_j * x_j`` (Eq. 5), so features can be strengthened (> 1) or
weakened (< 1) depending on the spatiotemporal context.  The gate parameters
are zero-initialised (Fig. 4) so every alpha starts at exactly 1 and the layer
is a no-op at initialisation.
"""

from __future__ import annotations

from typing import Collection, Dict, List, Tuple

import numpy as np

from ... import nn
from ...features.schema import FieldName
from ...nn import Tensor

__all__ = ["SpatiotemporalAwareEmbeddingLayer"]


class SpatiotemporalAwareEmbeddingLayer(nn.Module):
    """Field-granularity gate attention conditioned on spatiotemporal context."""

    def __init__(self, field_dims: Dict[str, int], context_field: str = FieldName.CONTEXT) -> None:
        super().__init__()
        if context_field not in field_dims:
            raise ValueError(f"context field {context_field!r} missing from field dims {list(field_dims)}")
        self.field_names: List[str] = list(field_dims.keys())
        self.context_field = context_field
        self.gates = nn.ModuleList()
        context_dim = field_dims[context_field]
        for name in self.field_names:
            gate = nn.Linear(field_dims[name] + context_dim, 1)
            # Zero-value initialisation (Fig. 4): alpha_j == 1 at the start.
            gate.weight.data[...] = 0.0
            gate.bias.data[...] = 0.0
            self.gates.append(gate)

    def forward(self, fields: Dict[str, Tensor]) -> Tuple[Dict[str, Tensor], Dict[str, Tensor]]:
        """Scale each field embedding; returns (scaled fields, alpha per field).

        The alphas are returned so analysis code can build the Fig. 8/9 weight
        heatmaps directly from a forward pass.
        """
        context = fields[self.context_field]
        scaled: Dict[str, Tensor] = {}
        alphas: Dict[str, Tensor] = {}
        for name, gate in zip(self.field_names, self.gates):
            x_j = fields[name]
            alpha = gate(Tensor.concat([x_j, context], axis=-1)).sigmoid() * 2.0
            alphas[name] = alpha
            scaled[name] = x_j * alpha
        return scaled, alphas

    def request_alphas(self, fields: Dict[str, np.ndarray], per_request: Collection[str],
                       rows) -> Dict[str, np.ndarray]:
        """Alpha per field for a request-factored batch (``BASM._fused_logit``).

        ``fields`` holds one row per *request* for the names in
        ``per_request`` (the context field among them) and one row per
        candidate otherwise.  A per-request field's gate is :meth:`forward`'s
        on those rows; a per-candidate field's gate logit splits into
        ``x_j . w_j`` per row plus the context block's partial, computed once
        per request and spread over its rows by ``rows`` (a ``RequestRows``).
        """
        context = fields[self.context_field]
        alphas: Dict[str, np.ndarray] = {}
        for name, gate in zip(self.field_names, self.gates):
            x_j = fields[name]
            if name in per_request:
                logit = gate(np.concatenate([x_j, context], axis=-1))
            else:
                width = x_j.shape[-1]
                logit = rows.add(
                    gate.partial(x_j, 0, width),
                    gate.partial(context, width, gate.in_features) + gate.bias.data,
                )
            alphas[name] = nn.functional.sigmoid(logit) * 2.0
        return alphas
