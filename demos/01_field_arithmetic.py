"""
A tour of GF(2^n) arithmetic
============================

Elements are plain ints; bit i is the coefficient of z^i.  Addition is
XOR, multiplication reduces modulo a fixed irreducible polynomial.
"""

from qdf import GF2n
from qdf.reference import solve_quadratic

f = GF2n(9)
print(f"field: {f}  (modulus found by exhaustive search)")

a, b = 0b101010111, 0b011000101
print(f"a + b   = {a ^ b:#011b}")
print(f"a * b   = {f.mul(a, b):#011b}")
print(f"a / b   = {f.div(a, b):#011b}")
print(f"a^-1    = {f.inv(a):#011b},  a * a^-1 = {f.mul(a, f.inv(a))}")

# the absolute trace maps onto GF(2); for odd n the trace of 1 is 1
print(f"trace(1) = {f.trace(1)}, trace(a) = {f.trace(a)}")

# quadratic equations: a*x^2 + b*x + c = 0 has 0 or 2 roots when b != 0,
# decided by the trace of a*c/b^2, and exactly one root when b == 0
eq = (1, a, b)
out = solve_quadratic(f, *eq)
print(f"x^2 + a*x + b: {out.count} roots {[hex(r) for r in out.roots]}")
for x in out.roots:
    assert f.sqr(x) ^ f.mul(a, x) ^ b == 0

print(f"x^2 + x + 1 over odd-degree fields is never solvable:",
      solve_quadratic(f, 1, 1, 1).count == 0)

# GF(8) sits inside GF(2^9) because 3 divides 9
sub = f.subfield(3)
print(f"order-8 subfield: {sub}")
print("closed under multiplication:",
      all(f.mul(x, y) in set(sub) for x in sub for y in sub))
