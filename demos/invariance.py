"""Shuffle the patches, watch the logits not move.

The classifier reads the class token only, and nothing in the encoder
depends on token order, so any patch permutation leaves the output bits
of headroom below any sane tolerance. A baseline with learned absolute
positions (ModelConfig.positions), same encoder otherwise, shows what
order-sensitivity looks like.
"""

import dataclasses

import numpy as np

from picrypt.pevit import ModelConfig, forward, init_params


def main():
    rng = np.random.default_rng(7)
    cfg = ModelConfig(patch_dim=48, dim=64, depth=4, heads=4, ffn_dim=256,
                      n_classes=10)
    x = rng.random((16, 48))

    for use_rpe in (False, True):
        mc = dataclasses.replace(cfg, rpe=use_rpe, rpe_hidden=64)
        params = init_params(mc, seed=1)
        base = forward(params, mc, x).data
        worst = 0.0
        for _ in range(50):
            out = forward(params, mc, x[rng.permutation(16)]).data
            worst = max(worst, float(np.max(np.abs(out - base))))
        print(f"rpe={use_rpe!s:5}  max logit deviation over 50 shuffles: "
              f"{worst:.2e}")

    bcfg = dataclasses.replace(cfg, positions=17)
    bparams = init_params(bcfg, seed=1)
    base = forward(bparams, bcfg, x).data
    worst = 0.0
    for _ in range(50):
        out = forward(bparams, bcfg, x[rng.permutation(16)]).data
        worst = max(worst, float(np.max(np.abs(out - base))))
    print(f"positional baseline     max logit deviation: {worst:.2e}")


if __name__ == "__main__":
    main()
