"""Mixup training lab with adversarially perturbed mixing coefficients.

Subpackages:

- ``autodiff``: tape-based reverse-mode differentiation on float64 arrays
- ``models``: small text-classification backbones with a split forward pass
- ``mixup``: beta-distributed interpolation of hidden states and labels
- ``amp``: the min-max-rand step that perturbs the mixing coefficient
- ``data``: corpus loading, vocabulary, encoding, synthetic task generator
- ``harness``: Adam, config, training loop, seed sweeps, ablations, lambda sweep
- ``gradcheck``: finite-difference and closed-form audit of every gradient
"""

from .errors import DivergenceError

__version__ = "0.1.0"

__all__ = ["DivergenceError", "__version__"]
