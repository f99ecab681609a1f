"""
Exact arithmetic in a real quadratic field
==========================================

Every number in this package is a + b*sqrt(d) with rational a, b and a
fixed squarefree d.  Nothing is ever rounded: comparisons, ceilings and
square roots are decided by integer arithmetic alone.
"""

import math
from fractions import Fraction

from divfilt import QuadNumber, field_sqrt, parse_scalar, sqrt_in_field

# construct numbers in Q(sqrt(3))
root3 = QuadNumber.sqrt_d(3)
x = 2 - root3 / 3
print("x =", x)
print("x as float (display only):", float(x))

# exact sign and comparison: no floating point is consulted
print("x > 1:", x > 1)
print("x < 3/2:", x < Fraction(3, 2))

# the two region thresholds of the builtin model multiply to... what?
steep = 3 - root3 / 3
shallow = (9 + root3) / 26
print("steep threshold     :", steep)
print("shallow threshold   :", shallow)
print("their exact product :", steep * shallow)  # exactly 1: reciprocals

# exact ceilings of irrational numbers (the engine behind length oracles)
root2 = QuadNumber.sqrt_d(2)
for n in (1, 5, 10, 99):
    print(f"ceil({n}*sqrt(2)) =", math.ceil(root2 * n))

# square roots that stay inside the field are found exactly
print("sqrt(12) in Q(sqrt(3)):", sqrt_in_field(12, 3))
print("sqrt(2) in Q(sqrt(3)) :", sqrt_in_field(2, 3))  # None: not in the field

y = QuadNumber(Fraction(252, 169), Fraction(54, 169), 3)
r = field_sqrt(y)
print("field_sqrt(252/169 + 54/169*sqrt(3)) =", r)
print("check by squaring:", r * r == y)

# round-trip through the canonical text form
text = x.canonical_string()
print("canonical text:", text)
print("parses back equal:", parse_scalar(text, 3) == x)
