"""Compare how a single 2-D embedding chases a target through one code-vector
under the four update styles: no quantization, joint task+commitment descent,
alternated codebook/task steps, and the joint update with the synchronized
(nu) codebook term.

Run:  python3 demos/01_toy_trajectory.py
"""
import numpy as np

from vqkit import resolve_config, run_toy_trajectory
from vqkit.experiments import TOY_MODES

SEEDS = range(5)
CONFIGS = {seed: resolve_config({"scenario": "toy-trajectory", "seed": seed}) for seed in SEEDS}

print("mode        seed   path length   steps to 1e-3   final task loss")
for mode in TOY_MODES:
    for seed in SEEDS:
        traj = run_toy_trajectory(CONFIGS[seed], mode)
        print(f"{mode:<11} {seed:>4}   {traj.path_length:11.4f}   "
              f"{traj.steps_to_tol:>13}   {traj.rows[-1][4]:.3e}")
    print()

print("What to look for:")
print(" * alternated takes a shorter embedding path than joint -- the code")
print("   is pulled onto the embedding before the task step, so the embedding")
print("   does not spiral around the target chasing a stale code.")
print(" * lookahead reaches tolerance fastest: the extra nu-weighted codebook")
print("   step removes the one-step delay of the moving-average code.")

path_joint = np.mean([run_toy_trajectory(CONFIGS[s], "joint").path_length for s in SEEDS])
path_alt = np.mean([run_toy_trajectory(CONFIGS[s], "alternated").path_length for s in SEEDS])
print(f"\nmean path length: joint {path_joint:.3f} vs alternated {path_alt:.3f}")
