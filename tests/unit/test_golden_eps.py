"""Known-answer digests of the GRNG epsilon stream.

Every other check of the LFSR kernels is relative: a backend against the
oracle, the bank against the scalar generator, batched against sequential.
An edit applied to both sides of such a comparison passes unnoticed.  These
tests pin the absolute bits instead: ``tests/data/golden_eps.json`` holds the
``tensor_fingerprint`` SHA-256 of the 256-bit, 8-row bank's forward stream,
its reversed retrieval and its checkpoint replay over a span that crosses
``GrngBank._KERNEL_STEP_LIMIT`` chunk boundaries, at strides 1 and 256.  The
stride-1 prefix is also cross-checked against the step-wise
:class:`~repro.core.grng.LfsrGaussianRNG`, which shares no kernel code with
the packed bank.

Regenerate the digests only when the bits are meant to move, and say why in
``CHANGES.md``::

    PYTHONPATH=src python tests/unit/test_golden_eps.py --update-golden
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np
import pytest

from repro.bnn.serialization import tensor_fingerprint
from repro.core.grng import LfsrGaussianRNG
from repro.core.grng_bank import GrngBank

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "data" / "golden_eps.json"
SEED_INDICES = tuple(range(8))
N_BITS = 256
#: Values per row: one boundary at stride 1 (8 MiB of bits per row is the
#: most tier-1 should hold), two boundaries at stride 256.
SPANS = {1: (1 << 21) + 4099, 256: 2 * ((1 << 21) // 256) + 300}
PREFIX = 300


def _bank(stride: int) -> GrngBank:
    return GrngBank(seed_indices=SEED_INDICES, n_bits=N_BITS, stride=stride)


def stream_digests(stride: int, count: int) -> dict[str, str]:
    """Fingerprints of one span's forward, reversed and replayed values."""
    bank = _bank(stride)
    start = bank.states()
    digests = {"forward": tensor_fingerprint(bank.epsilon_blocks(count))}
    end = bank.states()
    digests["reverse"] = tensor_fingerprint(bank.epsilon_blocks_reverse(count))
    digests["replay"] = tensor_fingerprint(bank.replay_blocks(start, count, end))
    return digests


def _compute_golden() -> dict:
    return {
        "bank": {"seed_indices": list(SEED_INDICES), "n_bits": N_BITS},
        "streams": {
            str(stride): {"count": count, **stream_digests(stride, count)}
            for stride, count in SPANS.items()
        },
    }


def _load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("stride", sorted(SPANS))
def test_epsilon_stream_matches_golden_digests(stride):
    entry = _load_golden()["streams"][str(stride)]
    assert entry["count"] == SPANS[stride]
    # The span must keep crossing a kernel chunk boundary.
    assert entry["count"] > GrngBank._KERNEL_STEP_LIMIT // stride
    got = stream_digests(stride, entry["count"])
    assert got == {key: entry[key] for key in ("forward", "reverse", "replay")}


def test_golden_prefix_matches_stepwise_generator():
    bank = _bank(1)
    forward = bank.epsilon_blocks(PREFIX)
    backward = bank.epsilon_blocks_reverse(PREFIX)
    for row, index in enumerate(SEED_INDICES):
        rng = LfsrGaussianRNG(n_bits=N_BITS, seed_index=index, stride=1)
        expected = np.array([rng.next_epsilon() for _ in range(PREFIX)])
        assert forward[row].tobytes() == expected.tobytes()
        expected_back = np.array([rng.previous_epsilon() for _ in range(PREFIX)])
        assert backward[row].tobytes() == expected_back.tobytes()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--update-golden",
        action="store_true",
        help=f"rewrite {GOLDEN_PATH.name} from the current code",
    )
    args = parser.parse_args()
    golden = _compute_golden()
    if args.update_golden:
        GOLDEN_PATH.write_text(json.dumps(golden, indent=2) + "\n")
        print(f"wrote {GOLDEN_PATH}")
        return 0
    same = golden == _load_golden()
    print("golden digests match" if same else "golden digests DIFFER")
    return 0 if same else 1


if __name__ == "__main__":
    raise SystemExit(main())
