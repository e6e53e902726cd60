"""The small encoder/decoder stack used by the desk-scale experiments."""
from __future__ import annotations

import numpy as np

from .autodiff import Node, Tape


class MLPAutoencoder:
    """Two-layer tanh autoencoder. The default desk-scale task quantizes the
    bottleneck of a 16 -> 32 -> 8 -> 32 -> 16 reconstruction network."""

    def __init__(self, d_in: int = 16, hidden: int = 32, d_code: int = 8,
                 rng: np.random.Generator | None = None):
        rng = rng or np.random.default_rng(0)
        self.d_in, self.hidden, self.d_code = d_in, hidden, d_code

        def init(fan_in, fan_out):
            return rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=(fan_in, fan_out))

        self.params: dict[str, np.ndarray] = {
            "enc_w1": init(d_in, hidden),
            "enc_b1": np.zeros((1, hidden)),
            "enc_w2": init(hidden, d_code),
            "enc_b2": np.zeros((1, d_code)),
            "dec_w1": init(d_code, hidden),
            "dec_b1": np.zeros((1, hidden)),
            "dec_w2": init(hidden, d_in),
            "dec_b2": np.zeros((1, d_in)),
        }

    encoder_param_names = ("enc_w1", "enc_b1", "enc_w2", "enc_b2")

    def make_nodes(self, tape: Tape) -> dict[str, Node]:
        """Record every parameter on a tape as a named leaf."""
        return {name: tape.leaf(value, name=name)
                for name, value in self.params.items()}

    def encode_values(self, x) -> np.ndarray:
        """Encoder output for the rows `x`, recorded on a throwaway tape."""
        tape = Tape()
        return self.encode(tape, tape.leaf(x), self.make_nodes(tape)).value

    def encode(self, tape: Tape, x: Node, nodes: dict[str, Node]) -> Node:
        h = tape.tanh(tape.add(tape.matmul(x, nodes["enc_w1"]), nodes["enc_b1"]))
        return tape.add(tape.matmul(h, nodes["enc_w2"]), nodes["enc_b2"])

    def decode(self, tape: Tape, z: Node, nodes: dict[str, Node]) -> Node:
        h = tape.tanh(tape.add(tape.matmul(z, nodes["dec_w1"]), nodes["dec_b1"]))
        return tape.add(tape.matmul(h, nodes["dec_w2"]), nodes["dec_b2"])
