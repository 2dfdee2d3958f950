"""Spatiotemporal Adaptive Bias Tower (StABT) — paper Section II-D.

The classification tower captures the *spatiotemporal bias* — the natural CTR
differences across times and locations (Fig. 6) — by modulating both its
fully-connected layers and its batch-normalisation layers with parameters
generated from the spatiotemporal context ``h_c``:

* Fusion FC (Eq. 10-13): per-layer gates ``W_bias`` (multiplicative, applied
  through a Hadamard product with the static weights) and ``b_bias``
  (additive) are produced by ``FCN_bias`` networks.
* Fusion BN (Eq. 14-17): per-layer ``gamma_bias`` (multiplicative) and
  ``beta_bias`` (additive) modulate the BN affine parameters, giving each
  spatiotemporal context its own effective normalisation.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ... import nn
from ...nn import Tensor

__all__ = ["FusionLayer", "SpatiotemporalAdaptiveBiasTower"]


class FusionLayer(nn.Module):
    """One Fusion FC + Fusion BN block of the adaptive bias tower."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        context_dim: int,
        activation: str = "leaky_relu",
        use_fusion_fc: bool = True,
        use_fusion_bn: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.use_fusion_fc = use_fusion_fc
        self.use_fusion_bn = use_fusion_bn
        self.linear = nn.Linear(in_features, out_features, rng=rng)
        self.norm = nn.BatchNorm1d(out_features)
        self.activation = nn.get_activation(activation)
        # FCN_bias heads (Eq. 10, 11, 15, 16): sigmoid-activated context maps.
        self.fc_weight_bias = nn.Linear(context_dim, out_features, rng=rng)
        self.fc_bias_bias = nn.Linear(context_dim, out_features, rng=rng)
        self.bn_gamma_bias = nn.Linear(context_dim, out_features, rng=rng)
        self.bn_beta_bias = nn.Linear(context_dim, out_features, rng=rng)

    def forward(self, x: Tensor, context: Tensor) -> Tensor:
        # --- Fusion FC ------------------------------------------------- #
        projected = self.linear(x)
        if self.use_fusion_fc:
            weight_bias = self.fc_weight_bias(context).sigmoid() * 2.0
            bias_bias = self.fc_bias_bias(context).sigmoid()
            projected = projected * weight_bias + bias_bias
        # --- Fusion BN ------------------------------------------------- #
        normalised = self.norm.normalise(projected)
        gamma, beta = self.norm.gamma, self.norm.beta
        if self.use_fusion_bn:
            gamma_bias = self.bn_gamma_bias(context).sigmoid() * 2.0
            beta_bias = self.bn_beta_bias(context).sigmoid()
            output = normalised * gamma * gamma_bias + beta + beta_bias
        else:
            output = normalised * gamma + beta
        return self.activation(output)

    def modulate(self, projected: np.ndarray, context: Tensor, rows) -> np.ndarray:
        """Eval-mode Fusion FC + Fusion BN over ``projected = linear(x)``, per request.

        The serving form of :meth:`forward` up to the activation
        (``BASM._fused_logit``): ``context`` holds one row per *request*,
        every FCN_bias head runs on those rows, the heads are folded with
        the BN running statistics into one centre / scale / shift per
        request, and ``rows`` (a ``RequestRows``) spreads them over each
        request's candidate rows.  Same arithmetic as :meth:`forward` up to
        float re-association.
        """
        norm = self.norm
        centre = -norm.running_mean
        scale = norm.gamma.data / np.sqrt(norm.running_var + norm.eps)
        shift = norm.beta.data
        if self.use_fusion_fc:
            weight_bias = (self.fc_weight_bias(context).sigmoid() * 2.0).data
            projected = rows.multiply(projected, weight_bias)
            centred = rows.add(projected, self.fc_bias_bias(context).sigmoid().data + centre)
        else:
            centred = projected + centre
        if not self.use_fusion_bn:
            return centred * scale + shift
        scale = scale * (self.bn_gamma_bias(context).sigmoid() * 2.0).data
        shift = shift + self.bn_beta_bias(context).sigmoid().data
        return rows.add(rows.multiply(centred, scale), shift)


class SpatiotemporalAdaptiveBiasTower(nn.Module):
    """Stack of fusion layers followed by the final sigmoid logit (Eq. 18)."""

    def __init__(
        self,
        in_features: int,
        context_dim: int,
        hidden_units: Sequence[int] = (128, 64, 32),
        activation: str = "leaky_relu",
        use_fusion_fc: bool = True,
        use_fusion_bn: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.layers = nn.ModuleList()
        previous = in_features
        for width in hidden_units:
            self.layers.append(
                FusionLayer(
                    previous,
                    width,
                    context_dim,
                    activation=activation,
                    use_fusion_fc=use_fusion_fc,
                    use_fusion_bn=use_fusion_bn,
                    rng=rng,
                )
            )
            previous = width
        self.output = nn.Linear(previous, 1, rng=rng)
        self.out_features = previous

    def hidden_representation(self, x: Tensor, context: Tensor) -> Tensor:
        """The representation before the final logit (used for Fig. 10/11 t-SNE)."""
        hidden = x
        for layer in self.layers:
            hidden = layer(hidden, context)
        return hidden

    def forward(self, x: Tensor, context: Tensor) -> Tensor:
        hidden = self.hidden_representation(x, context)
        return self.output(hidden).sigmoid().reshape(-1)
