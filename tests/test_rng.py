"""Known answers for the portable generator, from the formulas in its docstring."""

import pytest

from ddimine.rng import Rng, mix64

MASK = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def test_mix64_known_answers():
    # the first three outputs of the splitmix64 reference generator seeded with 0
    assert mix64(0) == 0xE220A8397B1DCDAF
    assert mix64(GOLDEN) == 0x6E789E6AA1B965F4
    assert mix64(2 * GOLDEN & MASK) == 0x06C45D188009454F


def reference_stream(seed: int, n: int) -> list[int]:
    """splitmix64-finalized seed, then xorshift64*, as the module docstring writes them."""
    z = (seed + GOLDEN) & MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    x = z ^ (z >> 31)
    out = []
    for _ in range(n):
        x ^= x >> 12
        x ^= (x << 25) & MASK
        x ^= x >> 27
        out.append((x * 0x2545F4914F6CDD1D) & MASK)
    return out


@pytest.mark.parametrize("seed", [0, 1, 7, 12345, 2**63, MASK])
def test_next_u64_is_xorshift64star(seed):
    rng = Rng(seed)
    assert [rng.next_u64() for _ in range(8)] == reference_stream(seed, 8)
