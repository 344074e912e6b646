"""Custom partitioners implementing the three distribution patterns.

Sect. 4.2 defines the suite's three micro-benchmarks by their
partitioner:

* **MR-AVG** — :class:`AveragePartitioner`: strict round-robin, every
  reducer receives the same number of pairs (±1).
* **MR-RAND** — :class:`RandomPartitioner`: reducer drawn uniformly per
  pair from a seeded PRNG ("With this limited range, the micro-benchmark
  more or less generates the same pattern of reducers" — we fix the seed
  so every run maps identically).
* **MR-SKEW** — :class:`SkewedPartitioner`: 50 % of all pairs to reducer
  0, 25 % of the remainder to reducer 1, 12.5 % of the remaining to
  reducer 2, and the rest uniformly at random. The pattern is fixed
  across runs, guaranteeing a fair comparison on homogeneous systems.

Partitioners are *per-map-task* objects (create one per task, or call
:meth:`Partitioner.reset` between tasks) because MR-AVG's round-robin
and the PRNG-based patterns carry per-task state.
"""

from __future__ import annotations

import abc
import random
from typing import List, Optional, Sequence

import numpy as np

from repro.datatypes.writable import Writable

#: ``random.Random.random()`` combines a 27-bit and a 26-bit word slice
#: into a 53-bit double with this scale factor.
_RANDOM_SCALE = 1.0 / 9007199254740992.0  # 2**-53


def _mt_from(rng: random.Random) -> np.random.MT19937:
    """A numpy MT19937 positioned at ``rng``'s exact generator state.

    CPython's ``random.Random`` and numpy's ``MT19937`` share the same
    core generator, so transplanting the 624-word state vector makes
    ``mt.random_raw(n)`` reproduce the next ``n`` 32-bit words ``rng``
    would draw — the basis of the vectorized ``exact_counts`` paths.
    """
    _version, internal, _gauss = rng.getstate()
    mt = np.random.MT19937()
    mt.state = {
        "bit_generator": "MT19937",
        "state": {"key": np.array(internal[:-1], dtype=np.uint64),
                  "pos": internal[-1]},
    }
    return mt


def _advance_rng(rng: random.Random, nwords: int) -> None:
    """Advance ``rng`` by exactly ``nwords`` 32-bit draws (in C speed)."""
    version, internal, gauss = rng.getstate()
    mt = _mt_from(rng)
    if nwords:
        mt.random_raw(nwords)
    state = mt.state["state"]
    rng.setstate((version,
                  tuple(int(x) for x in state["key"]) + (int(state["pos"]),),
                  gauss))


#: Words MT19937 generates per twist of its state.
_MT_BLOCK = 624


def _untemper(outputs: np.ndarray) -> np.ndarray:
    """The MT19937 state words behind 624 tempered outputs."""
    y = outputs.astype(np.uint32)
    y ^= y >> 18
    y ^= (y << 15) & np.uint32(0xEFC60000)
    x = y.copy()
    for _ in range(4):  # 7 more low bits settle per pass
        x = y ^ ((x << 7) & np.uint32(0x9D2C5680))
    y = x.copy()
    for _ in range(2):
        x = y ^ (x >> 11)
    return x


def _set_rng_after(rng: random.Random, words: np.ndarray,
                   consumed: int) -> None:
    """Put ``rng`` where it is after drawing ``words[:consumed]``.

    ``words`` are the next outputs of ``rng``'s generator, ending on a
    state-block boundary. MT19937's state after a word of block ``b``
    is block ``b``'s untempered words plus the word's offset, so it is
    read off the buffer instead of drawn a second time.
    """
    version, internal, gauss = rng.getstate()
    offset = internal[-1]
    position = offset + consumed
    if position <= _MT_BLOCK:
        state = internal[:-1] + (position,)
    else:
        block = (position - 1) // _MT_BLOCK
        first = block * _MT_BLOCK - offset
        key = _untemper(words[first:first + _MT_BLOCK])
        state = tuple(key.tolist()) + (position - block * _MT_BLOCK,)
    rng.setstate((version, state, gauss))


#: Words between the starts of the lockstep chains of :func:`_pair_orbit`.
_CHAIN_STRIDE = 1024

#: Words past the next chain's start within which neighbouring chains
#: must meet, or :meth:`SkewedPartitioner.exact_counts` falls back to
#: the per-pair loop. Measured over 93k pairs of chains (1 to 100
#: reducers): a median of 2-4 words, at most 73.
_MERGE_MARGIN = 256

#: Words drawn per pair beyond the expected consumption; an orbit that
#: still outruns the buffer redraws it twice as long.
_SPARE_PER_PAIR = 0.05


def _loop_counts(draw, num_reduces: int, n_pairs: int) -> np.ndarray:
    """Tally ``n_pairs`` calls of ``draw()`` into per-reducer counts."""
    counts = [0] * num_reduces
    for _ in range(n_pairs):
        counts[draw()] += 1
    return np.asarray(counts, dtype=np.int64)


def _head_table(thresholds: Sequence[float]) -> np.ndarray:
    """Head reducer per top-six-bit slice of a ``random()``'s first word.

    ``random()`` is ``(a * 2**26 + b) / 2**53`` with ``a`` the first
    word's top 27 bits, so for a threshold ``T / 64`` the test
    ``u < T / 64`` holds exactly when ``a >> 21`` -- the word's top six
    bits -- is below ``T``. Entries past the last threshold are -1
    (the pair goes to the uniform tail).
    """
    table = np.full(64, -1, dtype=np.int8)
    low = 0
    for reducer, threshold in enumerate(thresholds):
        high = int(threshold * 64)
        table[low:high] = reducer
        low = high
    return table


def _jump_table(words: np.ndarray, head_below: int,
                accept_below: int) -> np.ndarray:
    """``next(p)``: where the pair after a pair starting at word ``p`` starts.

    A head pair (first word below ``head_below``) eats two words, so
    ``next(p) = p + 2``. A tail pair then draws until a word below
    ``accept_below`` (``randrange``'s ``getrandbits(k) < n``), so
    ``next(p)`` is one past the first accepted word at or after
    ``p + 2`` -- always more than ``p + 2``, hence
    ``next(p) = max(p + 2, tail(p) * after_accept(p + 2))``, with no
    data-dependent branch. The result is int32 (int64 for huge
    buffers) with two extra slots; ``len(words) + 1`` marks a pair that
    runs off the buffer and maps to itself.
    """
    size = len(words)
    overflow = size + 1
    dtype = np.int32 if size < 2**30 else np.int64
    index = np.arange(1, size + 3, dtype=dtype)  # index[i] = i + 1
    # One past each accepted word's position, the overflow mark for a
    # rejected one; a reversed running minimum then gives, for every
    # position, one past the first accepted word at or after it.
    after = (words >= accept_below).view(np.uint8) * dtype(overflow)
    np.maximum(after, index[:size], out=after)
    after_accept = np.empty(size + 2, dtype=dtype)
    after_accept[size:] = overflow
    np.minimum.accumulate(after[::-1], out=after_accept[size - 1::-1])
    del after
    tail = (words >= head_below).view(np.uint8)
    nxt = np.empty(size + 2, dtype=dtype)
    nxt[size:] = overflow
    np.multiply(after_accept[2:], tail, out=nxt[:size])
    np.maximum(nxt[:size], index[1:size + 1], out=nxt[:size])
    return nxt


def _pair_orbit(nxt: np.ndarray, count: int, stride: int,
                margin: int) -> Optional[np.ndarray]:
    """The first ``count`` points of the orbit of 0 under ``nxt``.

    Chains start at every ``stride``-th position and follow ``nxt`` in
    lockstep until each has covered its own window plus ``margin``.
    Chain ``k`` meets chain ``k + 1`` at the first of its positions in
    ``[b, b + margin)``, ``b`` being chain ``k + 1``'s start, that chain
    ``k + 1`` also visits; from there on the two coincide. Only chain
    ``k + 1`` marks positions in that range (each chain marks its own
    window), so a hit is a true meeting point. Chain 0's positions up
    to its meeting point, then chain 1's up to the next, and so on, are
    the orbit of 0, already in order.

    Returns None if a chain the orbit needs does not meet its successor
    within ``margin``; returns fewer than ``count`` points if the orbit
    leaves the buffer (``len(nxt) - 2`` words) first.
    """
    size = len(nxt) - 2
    span = (stride + margin) // 2 + 1  # each step advances >= 2 words
    starts = np.arange(0, size, stride, dtype=nxt.dtype)
    chains = len(starts)
    covered = np.minimum(starts + (stride + margin), size + 1)
    rows = [starts]
    for step in range(1, span):
        rows.append(nxt.take(rows[-1]))
        if step % 64 == 0 and (rows[-1] >= covered).all():
            break
    path = np.vstack(rows)
    steps = len(rows)
    del rows
    begin = np.zeros(chains, dtype=np.intp)
    end = np.full(chains, steps, dtype=np.intp)
    last = chains - 1
    if last:
        reach = min(steps, margin // 2 + 1)  # rows spanning `margin` words
        bounds = starts[1:]
        cols = np.arange(last)
        # Chain k + 1 reaches past b + margin within `reach` rows.
        marks = np.zeros(size + 2 + stride, dtype=bool)
        marks[np.minimum(path[:reach], starts + stride)] = True
        # Rows where chain k is in [b, b + margin) of chain k + 1.
        cross = (path[:, :-1] < bounds).sum(axis=0)
        band = np.minimum(cross + np.arange(reach)[:, None], steps - 1)
        near = path[band, cols]
        hit = (near >= bounds) & (near < bounds + margin) & marks[near]
        met = hit.any(axis=0)
        first = hit.argmax(axis=0)
        end[:-1] = np.where(met, cross + first, steps)
        meet = near[first, cols]
        begin[1:] = (path[:reach, 1:] < meet).sum(axis=0)
        total = np.cumsum(end - begin)
        last = min(int(np.searchsorted(total, count)), last)
        stray = np.flatnonzero(~met[:last])
        if len(stray):
            first_stray = int(stray[0])
            if bounds[first_stray] + margin <= size:
                return None
            last = first_stray  # the orbit leaves the buffer in this chain
    orbit = np.concatenate(
        [path[begin[k]:end[k], k] for k in range(last + 1)])[:count]
    # Drop the overflow marks past the end of the buffer.
    return orbit[:np.searchsorted(orbit, size, side="right")]


class Partitioner(abc.ABC):
    """Assigns each intermediate pair to a reduce partition."""

    #: True when :meth:`get_partition` inspects the key/value content
    #: (only the hash baseline does); the pattern partitioners are
    #: index/PRNG driven, which enables :meth:`exact_counts`.
    uses_keys = False

    def __init__(self, num_reduces: int):
        if num_reduces < 1:
            raise ValueError(f"num_reduces must be >= 1, got {num_reduces}")
        self.num_reduces = num_reduces

    @abc.abstractmethod
    def get_partition(self, key: Writable, value: Writable) -> int:
        """Partition index in ``[0, num_reduces)`` for this pair."""

    def reset(self) -> None:
        """Restore per-task state (call between map tasks)."""

    def exact_counts(self, n_pairs: int) -> np.ndarray:
        """Per-reducer counts of the next ``n_pairs`` partition calls.

        Exactly equivalent to tallying ``get_partition`` ``n_pairs``
        times — same counts, same PRNG state afterwards — but without
        materializing keys (valid because ``uses_keys`` is False; the
        subclasses override this with vectorized implementations that
        replay the identical draw sequence, property-tested in
        ``tests/core/test_exact_counts.py``).
        """
        get_partition = self.get_partition
        return _loop_counts(lambda: get_partition(None, None),
                            self.num_reduces, n_pairs)

    def expected_distribution(self) -> List[float]:
        """Long-run fraction of pairs per reducer (sums to 1).

        Used by the simulator to build shuffle matrices without looping
        over billions of records; cross-validated against real runs of
        :meth:`get_partition` in the test suite.
        """
        n = self.num_reduces
        return [1.0 / n] * n


class AveragePartitioner(Partitioner):
    """MR-AVG: round-robin, perfectly even (max-min spread <= 1 pair)."""

    def __init__(self, num_reduces: int):
        super().__init__(num_reduces)
        self._next = 0

    def get_partition(self, key: Writable, value: Writable) -> int:
        partition = self._next
        self._next = (self._next + 1) % self.num_reduces
        return partition

    def reset(self) -> None:
        self._next = 0

    def exact_counts(self, n_pairs: int) -> np.ndarray:
        n = self.num_reduces
        base, extra = divmod(n_pairs, n)
        counts = np.full(n, base, dtype=np.int64)
        # The round-robin pointer continues from its current position.
        for offset in range(extra):
            counts[(self._next + offset) % n] += 1
        self._next = (self._next + n_pairs) % n
        return counts


class RandomPartitioner(Partitioner):
    """MR-RAND: uniform pseudo-random reducer per pair, seeded."""

    def __init__(self, num_reduces: int, seed: int = 20140901):
        super().__init__(num_reduces)
        self.seed = seed
        self._rng = random.Random(seed)

    def get_partition(self, key: Writable, value: Writable) -> int:
        return self._rng.randrange(self.num_reduces)

    def reset(self) -> None:
        self._rng = random.Random(self.seed)

    def exact_counts(self, n_pairs: int) -> np.ndarray:
        """Vectorized replay of ``randrange(n)`` rejection sampling.

        ``randrange(n)`` is ``getrandbits(n.bit_length())`` redrawn
        while the value is >= n; each ``getrandbits(k)`` consumes one
        raw word, shifted down to its top k bits. The accepted values
        of the raw stream, in order, ARE the randrange outputs — so
        count them with numpy and advance the Python PRNG by exactly
        the number of words consumed.
        """
        n = self.num_reduces
        counts = np.zeros(n, dtype=np.int64)
        if n_pairs <= 0:
            return counts
        k = n.bit_length()
        shift = 32 - k
        mt = _mt_from(self._rng)
        consumed = 0
        needed = n_pairs
        while needed:
            # Acceptance rate is n / 2**k; draw with a little headroom.
            est = int(needed * (1 << k) / n * 1.05) + 64
            draws = (mt.random_raw(est) >> shift).astype(np.int64)
            accepted = draws < n
            n_accepted = int(accepted.sum())
            if n_accepted >= needed:
                cut = int(np.nonzero(accepted)[0][needed - 1]) + 1
                counts += np.bincount(draws[:cut][accepted[:cut]],
                                      minlength=n)
                consumed += cut
                break
            counts += np.bincount(draws[accepted], minlength=n)
            consumed += est
            needed -= n_accepted
        _advance_rng(self._rng, consumed)
        return counts


class SkewedPartitioner(Partitioner):
    """MR-SKEW: geometric head (50 %, 12.5 %, ~4.7 %) + uniform tail.

    Thresholds over a uniform draw ``u``:

    * ``u < 0.5``                    -> reducer 0 (50 % of all pairs)
    * ``0.5 <= u < 0.625``           -> reducer 1 (25 % of the remainder)
    * ``0.625 <= u < 0.671875``      -> reducer 2 (12.5 % of the remaining)
    * otherwise                      -> uniform over all reducers

    With fewer than 3 reducers the head truncates accordingly.
    """

    #: Cumulative thresholds for reducers 0..2.
    _HEAD = (0.5, 0.625, 0.671875)

    def __init__(self, num_reduces: int, seed: int = 20140901):
        super().__init__(num_reduces)
        self.seed = seed
        self._rng = random.Random(seed)

    def get_partition(self, key: Writable, value: Writable) -> int:
        u = self._rng.random()
        head = min(len(self._HEAD), self.num_reduces - 1)
        for reducer in range(head):
            if u < self._HEAD[reducer]:
                return reducer
        return self._rng.randrange(self.num_reduces)

    def reset(self) -> None:
        self._rng = random.Random(self.seed)

    def exact_counts(self, n_pairs: int) -> np.ndarray:
        """Vectorized replay of the head-or-tail draw over the raw words.

        A pair's word consumption is data-dependent (``random()`` eats
        two words; a tail pair then runs ``randrange``'s rejection
        loop), so the pair starts are found as the orbit of word 0
        under the jump function ``next(p)`` of :func:`_jump_table`:

        * **Head test by lookup table.** The head thresholds 1/2, 5/8
          and 43/64 are multiples of 1/64, and ``random()``'s 53-bit
          numerator has the pair's first word as its top 32 bits. So
          ``u < t`` holds exactly when the word's top six bits are below
          ``64 t``: a 64-entry table (:func:`_head_table`) gives each
          pair's head reducer with no float arithmetic.
        * **Orbit stitch.** :func:`_pair_orbit` follows ``next`` from
          every ``_CHAIN_STRIDE``-th word in lockstep; neighbouring
          chains meet within a few words, and the pieces of each chain
          between consecutive meeting points join into the orbit of 0.
        * **Fallback.** If two neighbouring chains do not meet within
          ``_MERGE_MARGIN`` words, the per-pair loop runs instead; a
          buffer the orbit outruns is redrawn twice as long.

        The words are the ones ``self._rng`` would draw, taken from a
        copy of its MT19937 state, and the PRNG is then set to its state
        after exactly the words the pairs consumed (untempered from the
        buffer by :func:`_set_rng_after`) — so counts and the state left
        behind are bit-identical to calling :meth:`get_partition`
        ``n_pairs`` times (checked against that loop in
        ``tests/core/test_exact_counts.py``).
        """
        n = self.num_reduces
        if n_pairs <= 0:
            return np.zeros(n, dtype=np.int64)
        head = min(len(self._HEAD), n - 1)
        table = _head_table(self._HEAD[:head])
        head_tops = int(np.count_nonzero(table >= 0))
        k = n.bit_length()
        shift = 32 - k
        tail_prob = 1.0 - (self._HEAD[head - 1] if head else 0.0)
        words_per_pair = 2.0 + tail_prob * (1 << k) / n + _SPARE_PER_PAIR
        size = int(n_pairs * words_per_pair) + 256
        offset = self._rng.getstate()[1][-1]  # words drawn from the block
        while True:
            # Whole MT blocks, so the state after any prefix is at hand.
            size += -(offset + size) % _MT_BLOCK
            words = _mt_from(self._rng).random_raw(size).view(np.int64)
            nxt = _jump_table(words, head_tops << 26, n << shift)
            orbit = _pair_orbit(nxt, n_pairs + 1, _CHAIN_STRIDE,
                                _MERGE_MARGIN)
            if orbit is None:  # chains failed to meet: replay per pair
                return _loop_counts(
                    lambda: SkewedPartitioner.get_partition(self, None, None),
                    n, n_pairs)
            if len(orbit) > n_pairs:
                break
            size *= 2
        del nxt
        # Head pairs tally by their first word's top six bits; a tail
        # pair's reducer is its accepted word, the last one it eats.
        tops = words[orbit[:-1]] >> 26
        accepted = words[orbit[1:] - 1] >> shift
        # Weighting by the tail flag leaves head pairs out of the tail
        # tally without a data-dependent branch (exact below 2**53).
        counts = np.bincount(accepted, weights=tops >= head_tops,
                             minlength=n)[:n].astype(np.int64)
        by_top = np.bincount(tops, minlength=64)
        for reducer in range(head):
            counts[reducer] += by_top[table == reducer].sum()
        _set_rng_after(self._rng, words, int(orbit[-1]))
        return counts

    def expected_distribution(self) -> List[float]:
        n = self.num_reduces
        head = min(len(self._HEAD), n - 1)
        probs = [0.0] * n
        prev = 0.0
        for reducer in range(head):
            probs[reducer] = self._HEAD[reducer] - prev
            prev = self._HEAD[reducer]
        tail = 1.0 - prev
        for reducer in range(n):
            probs[reducer] += tail / n
        return probs


class ZipfPartitioner(Partitioner):
    """Extension pattern: Zipf-distributed reducer loads.

    The paper's future work calls for features that let "users gain a
    more concrete understanding of real-world workloads"; real skew
    (word counts, social graphs, URL hits) is Zipfian rather than the
    fixed geometric head of MR-SKEW. Reducer ``r`` receives pairs with
    probability proportional to ``1 / (r + 1) ** exponent``.
    """

    def __init__(self, num_reduces: int, seed: int = 20140901,
                 exponent: float = 1.0):
        super().__init__(num_reduces)
        if exponent <= 0:
            raise ValueError(f"exponent must be positive, got {exponent}")
        self.seed = seed
        self.exponent = exponent
        self._rng = random.Random(seed)
        weights = [1.0 / (r + 1) ** exponent for r in range(num_reduces)]
        total = sum(weights)
        self._cdf: List[float] = []
        acc = 0.0
        for w in weights:
            acc += w / total
            self._cdf.append(acc)
        self._cdf[-1] = 1.0  # guard against float shortfall

    def get_partition(self, key: Writable, value: Writable) -> int:
        u = self._rng.random()
        # Binary search the CDF.
        lo, hi = 0, self.num_reduces - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if u <= self._cdf[mid]:
                hi = mid
            else:
                lo = mid + 1
        return lo

    def reset(self) -> None:
        self._rng = random.Random(self.seed)

    def exact_counts(self, n_pairs: int) -> np.ndarray:
        """Vectorized CDF inversion: every pair consumes exactly two
        raw words (one ``random()`` call), so the whole draw sequence
        reconstructs in one shot."""
        n = self.num_reduces
        if n_pairs <= 0:
            return np.zeros(n, dtype=np.int64)
        mt = _mt_from(self._rng)
        raw = mt.random_raw(2 * n_pairs)
        u = ((raw[0::2] >> np.uint64(5)).astype(np.float64) * 67108864.0
             + (raw[1::2] >> np.uint64(6)).astype(np.float64)) * _RANDOM_SCALE
        # get_partition finds the smallest index with u <= cdf[i]; for
        # the last bucket the loop bottoms out at n-1 without a compare,
        # which searchsorted(side="left") reproduces (cdf[-1] is 1.0).
        draws = np.searchsorted(np.asarray(self._cdf), u, side="left")
        counts = np.bincount(draws, minlength=n).astype(np.int64)
        _advance_rng(self._rng, 2 * n_pairs)
        return counts

    def expected_distribution(self) -> List[float]:
        weights = [1.0 / (r + 1) ** self.exponent
                   for r in range(self.num_reduces)]
        total = sum(weights)
        return [w / total for w in weights]


class SplitSkewedPartitioner(SkewedPartitioner):
    """Extension: MR-SKEW with key-splitting mitigation.

    The paper asks whether "it is worthwhile to find alternative
    techniques that can mitigate load imbalances". This partitioner
    applies the classic mitigation — split the hot key's partition
    across ``split`` reducers (valid whenever the reduce function is
    associative, as the benchmark's discard-reduce trivially is) —
    to the exact MR-SKEW draw, so the two are directly comparable.
    """

    def __init__(self, num_reduces: int, seed: int = 20140901,
                 split: int = 4):
        super().__init__(num_reduces, seed=seed)
        if split < 1:
            raise ValueError(f"split must be >= 1, got {split}")
        self.split = min(split, num_reduces)
        self._spread = 0

    def get_partition(self, key: Writable, value: Writable) -> int:
        partition = super().get_partition(key, value)
        if partition == 0:
            # Fan the hot partition round-robin over the `split`
            # least-loaded (tail) reducers.
            partition = self.num_reduces - self.split + self._spread
            self._spread = (self._spread + 1) % self.split
        return partition

    def reset(self) -> None:
        super().reset()
        self._spread = 0

    def exact_counts(self, n_pairs: int) -> np.ndarray:
        counts = SkewedPartitioner.exact_counts(self, n_pairs)
        hot = int(counts[0])
        counts[0] = 0
        # Round-robin the hot pairs over the `split` tail reducers,
        # continuing from the current spread pointer.
        base, extra = divmod(hot, self.split)
        start = self.num_reduces - self.split
        add = np.full(self.split, base, dtype=np.int64)
        for offset in range(extra):
            add[(self._spread + offset) % self.split] += 1
        counts[start:] += add
        self._spread = (self._spread + hot) % self.split
        return counts

    def expected_distribution(self) -> List[float]:
        base = super().expected_distribution()
        probs = list(base)
        hot = probs[0]
        probs[0] = 0.0
        for r in range(self.num_reduces - self.split, self.num_reduces):
            probs[r] += hot / self.split
        return probs


class HashPartitioner(Partitioner):
    """Hadoop's default partitioner; the suite's sanity baseline.

    With the generator's unique-keys-per-reducer trick, hashing gives a
    near-even distribution but no guarantees; the paper's MR-AVG exists
    precisely to make evenness exact.
    """

    uses_keys = True

    def get_partition(self, key: Writable, value: Writable) -> int:
        # Hadoop: (key.hashCode() & Integer.MAX_VALUE) % numReduceTasks.
        # Writable.stable_hash is seed-independent; the builtin hash()
        # fallback (for plain-Python keys) varies with PYTHONHASHSEED.
        stable = getattr(key, "stable_hash", None)
        h = stable() if stable is not None else hash(key)
        return (h & 0x7FFFFFFF) % self.num_reduces


#: Partitioner classes keyed by benchmark pattern name ("zipf" is this
#: reproduction's real-world-skew extension).
PARTITIONER_BY_PATTERN = {
    "avg": AveragePartitioner,
    "rand": RandomPartitioner,
    "skew": SkewedPartitioner,
    "zipf": ZipfPartitioner,
    "skew-split": SplitSkewedPartitioner,
}


def make_partitioner(pattern: str, num_reduces: int, seed: int = 20140901) -> Partitioner:
    """Instantiate the partitioner for a distribution pattern."""
    try:
        cls = PARTITIONER_BY_PATTERN[pattern]
    except KeyError:
        raise ValueError(
            f"unknown pattern {pattern!r}; known: {sorted(PARTITIONER_BY_PATTERN)}"
        ) from None
    if cls is AveragePartitioner:
        return cls(num_reduces)
    return cls(num_reduces, seed=seed)


def distribution_stats(counts: Sequence[int]) -> dict:
    """Imbalance statistics of a per-reducer record count vector."""
    total = sum(counts)
    if total == 0:
        return {"total": 0, "max": 0, "min": 0, "imbalance": 0.0, "top_share": 0.0}
    mean = total / len(counts)
    return {
        "total": total,
        "max": max(counts),
        "min": min(counts),
        "imbalance": max(counts) / mean,
        "top_share": max(counts) / total,
    }
