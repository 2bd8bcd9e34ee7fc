"""Record a tiny computation on the tape and differentiate it.

The tape is define-by-run: ops executed inside ``with Tape()`` append
nodes, and ``backward`` walks the ones downstream of the requested
leaves once in reverse. The same machinery
later gives the gradient with respect to a mixing coefficient, so this
demo ends by differentiating through an interpolation weight.
"""

import numpy as np

from admix import autodiff as ad
from admix.gradcheck import finite_diff_check


def main() -> None:
    rng = np.random.default_rng(0)

    # d/dx of sum(tanh(x @ w)) via the tape, then via finite differences.
    x = ad.Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    w = ad.Tensor(rng.standard_normal((4, 2)), requires_grad=True)
    with ad.Tape() as tape:
        out = ad.reduce_sum(ad.tanh(ad.matmul(x, w)))
        (grad_x,) = ad.backward(tape, out, [x])
    print(f"recorded {len(tape)} ops, output {out.data:.6f}")
    print("grad wrt x, first row:", np.round(grad_x[0], 6))

    err = finite_diff_check(lambda t: ad.reduce_sum(ad.tanh(ad.matmul(t, w))), x)
    print(f"max relative error vs central differences: {err:.2e}")

    # The coefficient of a convex combination is itself a leaf: the tape
    # happily returns d loss / d lam alongside the parameter gradients.
    lam = ad.Tensor(np.array(0.3), requires_grad=True)
    a = ad.Tensor(rng.standard_normal(5))
    b = ad.Tensor(rng.standard_normal(5))
    with ad.Tape() as tape:
        mixed = ad.add(ad.mul(a, lam), ad.mul(b, ad.add(ad.scale(lam, -1.0), 1.0)))
        loss = ad.reduce_sum(ad.mul(mixed, mixed))
        (grad_lam,) = ad.backward(tape, loss, [lam])
    manual = float(2.0 * np.sum((lam.data * a.data + (1 - lam.data) * b.data) * (a.data - b.data)))
    print(f"d loss / d lam: tape {float(grad_lam):.6f}, hand-derived {manual:.6f}")


if __name__ == "__main__":
    main()
