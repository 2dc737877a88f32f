"""
Finite-dimensional widths and their certificates
================================================

Width orders of ℓ_p balls and their intersections are exact symbolic
values here, not floats.  Lower bounds come with machine-checkable
certificates: a test set inclusion plus a list of exact inequalities.
"""

from fractions import Fraction as F

from widthcalc import (
    INF,
    IntersectionSpec,
    ProblemSpec,
    classify_branch,
    dyadic_block_order,
    intersection_order,
    phi_value,
    psi_value,
    single_ball_order,
)

# For q ≤ p the width is a single power of N − n, exactly.
for n in (0, 4, 12, 15, 16):
    order = single_ball_order(16, n, INF, 2)
    print(f"n = {n:2d}  d_n(B_inf^16, l_2) = {order.value}")

# Below q the order is governed by the gaussian factor g = n^(-1/2) N^(1/q).
print()
for n in (16, 64, 256, 512):
    order = single_ball_order(1024, n, 2, 4)
    print(f"n = {n:3d}  d_n(B_2^1024, l_4) = {str(order.value):10s} ({order.branch})")

# An intersection of a cube and a cross-polytope: the width order is the
# interpolated cross term, and the certificate exhibits a sparse-vector
# set V_k inside the intersection that already has that width.
print()
spec = IntersectionSpec(N=16, n=4, q=2, balls=((INF, F(1, 4)), (1, F(1))))
order = intersection_order(spec)
case, cert = classify_branch(spec)
print("value:   ", order.value, " branch:", order.branch, " case:", case)
print("cert:    ", cert.kind, "k =", cert.k, "scale =", cert.scale)
for check in cert.checked:
    print(f"   {check.label:30s} {str(check.lhs):>10s} <= {str(check.rhs):<10s} {check.holds}")
print("verified:", cert.verify())

# Dyadic frequency blocks of a smoothness class reduce to exactly such
# intersections, and their width orders follow the block rate phi.
print()
spec = ProblemSpec(r=(F(1), F(2)), p=(F(3), F(3, 2)), q=F(2))
for m_vec in ((4, 0), (3, 2), (2, 4), (0, 6)):
    order = dyadic_block_order(spec, m_vec, n=4)
    rate = phi_value(spec, tuple(F(v) for v in m_vec))
    print(f"m = {m_vec}  width order {str(order.value):12s} = 2^(-{rate})  ({order.branch})")

# Above q = 2 the rate also depends on the budget n = 2^L: it is psi, read at
# t = m_1 + ... + m_d and log n = L.
print()
spec = ProblemSpec(r=(F(2), F(1)), p=(F(8), F(3, 2)), q=F(4))
for m_vec, log_n in (((2, 0), 1), ((1, 3), 2), ((1, 4), 4), ((0, 4), 3)):
    order = dyadic_block_order(spec, m_vec, n=2**log_n)
    rate = psi_value(spec, tuple(F(v) for v in m_vec), F(sum(m_vec)), F(log_n))
    print(f"m = {m_vec}, n = 2^{log_n}  width order {str(order.value):12s} = 2^(-{rate})"
          f"  ({order.branch})")
