"""
Minimal nef envelopes
=====================

For an effective divisor D supported on the exceptional primes, gamma(D)
is the coordinatewise-smallest raising of its coefficients making the
negated divisor nef on every surface.  The raising can be irrational even
for integer inputs — that is where irrational multiplicities come from.
"""

from fractions import Fraction

from divfilt import builtin_model, gamma, is_antinef, regions

model = builtin_model()
S = model.prime_divisor("Sbar")
F = model.prime_divisor("F")

# along the segment from S to F the envelope passes through three regimes:
# raise the second coordinate, raise nothing, raise the first coordinate
for n, j in ((2, 1), (1, 1), (2, 3), (1, 3), (0, 1)):
    env = gamma(model, model.divisor([n, j]))
    print(f"gamma({n}*Sbar + {j}*F) = {env}")

# region "2" means D was already anti-nef: nothing to raise
print()
print("is_antinef(Sbar + F)    :", is_antinef(model, S + F))
print("is_antinef(Sbar)        :", is_antinef(model, S))
print("is_antinef(F)           :", is_antinef(model, F))

# the envelope is minimal: lowering a raised coordinate by 1/1000 breaks it
env = gamma(model, F)
print()
print("envelope of F:", env.gamma_string())
lowered = list(env.gamma)
lowered[0] = lowered[0] - Fraction(1, 1000)
print("lower first coordinate by 1/1000 -> still anti-nef?",
      is_antinef(model, model.divisor(lowered)))
# exactly: multipliers >= 0 on the active constraints whose gradients sum
# to each unit vector prove that no coordinate can drop at all
for line in env.certificate_lines():
    print(line)

# where the behaviour changes along the family n*Sbar + j*F
slopes = regions(model, S, F)
print()
print("region boundaries of (Sbar, F):",
      ", ".join(s.canonical_string() for s in slopes))
print("swapped family (F, Sbar)      :",
      ", ".join(s.canonical_string() for s in regions(model, F, S)))

# idempotence: an envelope is its own envelope
again = gamma(model, env.envelope_divisor)
print()
print("envelope of the envelope is itself:", again.gamma == env.gamma)
