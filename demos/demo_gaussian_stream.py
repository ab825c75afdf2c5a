"""Gaussian draws from bit counting, and their exact backward retrieval.

The 1s count of a 256-bit register is binomial B(256, 0.5), which is
close to N(128, 64); standardizing gives a unit-Gaussian surrogate with
0.125 quantization.  Because the register reverses exactly, the same
draws can be read back most-recent-first without storing any of them.
"""

import numpy as np

from shiftbnn import TapSet, counts_to_eps, grng_init

stream = grng_init(master_seed=0, stream_id=0, taps=TapSet.default(256))

# a block of draws is raw 1s counts; counts_to_eps standardizes them
draws = stream.generate_block(8)
print("forward draws:  ", [f"{e:+.3f}" for e in counts_to_eps(draws, 256)])
print("(all equal: this register starts on an all-zero low word, as mix64(0) == 0,\n"
      " so its first 56 draws count 91 ones; ROADMAP item 2b reseeds it)")

retrieved = stream.retrieve_block(8)
print("retrieved:      ", [f"{e:+.3f}" for e in counts_to_eps(retrieved, 256)])
assert np.array_equal(retrieved, draws[::-1]) and stream.position == 0

# 1,000 draws on, the draws differ, so the reversed order shows
stream.generate_block(1000)
draws = stream.generate_block(8)
print("draws 1000-1007:", [f"{e:+.3f}" for e in counts_to_eps(draws, 256)])
retrieved = stream.retrieve_block(8)
print("retrieved:      ", [f"{e:+.3f}" for e in counts_to_eps(retrieved, 256)])
assert np.array_equal(retrieved, draws[::-1]) and stream.position == 1000
print("retrieval is the exact reverse of generation, no storage involved")

# moments over a large block
eps = counts_to_eps(stream.generate_block(1_000_000), 256)
print(f"1e6 draws: mean {eps.mean():+.4f}, variance {eps.var():.4f}")
print(f"value range [{eps.min():+.3f}, {eps.max():+.3f}], step 0.125")

# adjacent draws share 255 of 256 window bits, so the stream is smooth
corr = np.corrcoef(eps[:-1], eps[1:])[0, 1]
print(f"lag-1 correlation {corr:.4f} (a sliding window, not i.i.d. noise)")
