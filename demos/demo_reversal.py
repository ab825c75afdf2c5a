"""Walk a register forward, then reverse it bit-for-bit.

Shows the core trick: a Fibonacci-form shift register whose dropped tail
bit can always be reconstructed from the head and the shifted tap
registers, so any forward trajectory can be unwound exactly.
"""

from shiftbnn import TapSet, new_lfsr, shift_forward, shift_reverse

taps = TapSet.default(8)
state = new_lfsr(taps, 0b1010_0110)
print(f"taps {taps.taps}, seed {state.bits:08b}")

trace = []
for step in range(12):
    state, head_in, tail_out = shift_forward(state)
    trace.append((state.bits, head_in, tail_out))
    print(f"  fwd {step:2d}: {state.bits:08b}  in={head_in} out={tail_out}")

print("reversing:")
for step in range(12):
    state, tail_in, head_out = shift_reverse(state)
    print(f"  rev {step:2d}: {state.bits:08b}  reconstructed tail={tail_in}")

print(f"back at seed: {state.bits:08b} (position {state.position})")
assert state.bits == 0b1010_0110 and state.position == 0
