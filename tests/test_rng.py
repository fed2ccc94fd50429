"""Known answers for the portable generator, from the formulas in its docstring."""

import math
import random

import pytest

from ddimine.rng import Rng, mix64

MASK = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
MULT = 0x2545F4914F6CDD1D


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
    return xorshift64star(z ^ (z >> 31), n)


def xorshift64star(x: int, n: int) -> list[int]:
    """The ``n`` outputs that follow the state ``x``."""
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


class ScalarModel:
    """Every draw of ``Rng`` restated one value at a time over ``reference_stream``."""

    def __init__(self, values: list[int]):
        self.values, self.pos = values, 0

    def next_u64(self):
        self.pos += 1
        return self.values[self.pos - 1]

    def below(self, n):
        while (r := self.next_u64()) >= (1 << 64) - (1 << 64) % n:
            pass
        return r % n

    def randint(self, lo, hi):
        return lo + self.below(hi - lo + 1)

    def random(self):
        return (self.next_u64() >> 11) * 2.0**-53

    def normal(self):
        while (u1 := self.random()) == 0.0:
            pass
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * self.random())

    def shuffle(self, items):
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]

    def choice(self, items):
        return items[self.below(len(items))]

    def sample_indices(self, n, k):
        arr = list(range(n))
        for i in range(k):
            j = i + self.below(n - i)
            arr[i], arr[j] = arr[j], arr[i]
        return arr[:k]

    def u64s(self, n):
        return [self.next_u64() for _ in range(n)]

    def uniforms(self, n):
        return [self.random() for _ in range(n)]

    def normals(self, n):
        return [self.normal() for _ in range(n)]


def _draw(target, op, args):
    """One call on ``target`` (an ``Rng`` or the model), as a plain comparable value."""
    if op == "shuffle":
        items = list(range(args[0]))
        target.shuffle(items)
        return items
    if op == "choice":
        return target.choice([f"x{i}" for i in range(args[0])])
    out = getattr(target, op)(*args)
    return out.tolist() if hasattr(out, "tolist") else out


@pytest.mark.parametrize("seed", [3, 2**64 - 5])
def test_bulk_and_scalar_reads_interleave_as_one_scalar_stream(seed):
    """Random interleavings of every method, across block refills and past the largest block size."""
    pick = random.Random(seed)
    calls = []
    for _ in range(1500):
        op = pick.choice(["next_u64", "below", "below_big", "randint", "random", "shuffle", "choice",
                          "sample_indices", "u64s", "uniforms", "normals"])
        if op == "below_big":  # about half of all draws are rejected at this n
            calls.append(("below", ((1 << 63) + pick.randrange(1, 1 << 20),)))
        elif op in ("u64s", "uniforms", "normals"):
            calls.append((op, (pick.choice([0, 1, 2, 63, 64, 65, pick.randrange(300), pick.randrange(2000)]),)))
        elif op == "randint":
            lo = pick.randrange(-50, 50)
            calls.append((op, (lo, lo + pick.randrange(100))))
        elif op == "sample_indices":
            n = pick.randrange(1, 40)
            calls.append((op, (n, pick.randrange(n + 1))))
        elif op in ("below", "shuffle", "choice"):
            calls.append((op, (pick.randrange(1, 30),)))
        else:
            calls.append((op, ()))
    calls.insert(700, ("u64s", (140_000,)))  # past the largest block, and from inside one
    calls.insert(1000, ("sample_indices", (140_000, 140_000)))  # scalar reads until blocks stop growing
    rng, model = Rng(seed), ScalarModel(reference_stream(seed, 600_000))
    for op, args in calls:
        assert _draw(rng, op, args) == _draw(model, op, args), (op, args)
    assert rng.next_u64() == model.next_u64()
    assert model.pos > 280_000


def _unstep(x: int) -> int:
    """The state whose xorshift step gives ``x``: each xor-shift undone, last first."""
    for shift, left in ((27, False), (25, True), (12, False)):
        y = x
        for _ in range(64 // shift + 1):
            y = x ^ ((y << shift) & MASK if left else y >> shift)
        x = y
    return x


def _state_before_output(index: int, k: int) -> int:
    """A state whose output ``index`` (counting from 0) is ``k``."""
    x = k * pow(MULT, -1, 1 << 64) & MASK  # the state that outputs k
    for _ in range(index + 1):
        x = _unstep(x)
    return x


@pytest.mark.parametrize("index,k", [(0, 1), (0, 2047), (6, 5), (301, 1000)])
def test_a_zero_uniform_is_drawn_again_for_u1_by_scalar_and_bulk_normal_alike(index, k):
    state = _state_before_output(index, k)
    values = xorshift64star(state, 2 * index + 20)
    assert values[index] == k and (k >> 11) * 2.0**-53 == 0.0
    n = index // 2 + 3
    scalar, bulk = Rng(1), Rng(1)
    scalar._state = bulk._state = state
    model = ScalarModel(values)
    want = model.normals(n)
    assert model.pos == 2 * n + (index % 2 == 0)  # a zero is drawn again at a u1 position, and kept at a u2
    assert [scalar.normals(1).item() for _ in range(n)] == want
    assert bulk.normals(n).tolist() == want
    assert scalar.next_u64() == bulk.next_u64() == model.next_u64()


@pytest.mark.parametrize("seed", [0, 5, 2**64 - 1])
def test_shuffle_and_sample_indices_draw_as_the_scalar_loops(seed):
    """n from 0 to 3, then random sizes: each call's items equal the scalar loop's, and the stream goes on from the
    same value."""
    pick = random.Random(seed)
    rng, model = Rng(seed), ScalarModel(reference_stream(seed, 50_000))
    for n in [0, 1, 2, 3] + [pick.randrange(4, 1500) for _ in range(12)]:
        assert _draw(rng, "shuffle", (n,)) == _draw(model, "shuffle", (n,)), n
        k = pick.randrange(n + 1)
        assert _draw(rng, "sample_indices", (n, k)) == _draw(model, "sample_indices", (n, k)), (n, k)
    assert rng.next_u64() == model.next_u64()


@pytest.mark.parametrize("index", [0, 1, 17, 47])
def test_a_rejected_draw_is_drawn_again_from_the_next_value(index):
    """2**64 - 1 planted at output ``index`` is rejected below any bound but a power of 2: the bound takes the next
    value, and every later draw moves one value on, as in the scalar loop."""
    state = _state_before_output(index, MASK)
    values = xorshift64star(state, 60)
    for op, args, draws in (("shuffle", (50,), 49), ("sample_indices", (50, 48), 48)):
        rng, model = Rng(1), ScalarModel(values)
        rng._state = state
        assert _draw(rng, op, args) == _draw(model, op, args)
        assert model.pos == draws + 1  # the planted value was drawn and refused
        assert rng.next_u64() == model.next_u64()
