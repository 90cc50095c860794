"""
Building a multi-layered network and measuring tie strength
===========================================================

A multi-layered social network connects the same people through several
kinds of relationship at once: one layer per relationship type, directed
edges, at most one edge per direction per layer.  This walkthrough
builds small networks by hand and looks at the two edge measures.
"""

from clecc import MultiLayerNetwork, clecc, clecc_table, demo_network, ecc

# ----------------------------------------------------------------------
# The five-user demo network: one layer, eight directed edges.  x-y,
# x-z and u-v know each other reciprocally; y and u each point at z
# one-way.  Neighbourhoods ignore direction, so z still sees u.

net = demo_network()
print("nodes:", net.nodes())
print("layers:", net.layers())
print("N(x, l1) =", sorted(net.neighborhood("x", "l1")))
print("N(z, l1) =", sorted(net.neighborhood("z", "l1")))
print("N(v, l1) =", sorted(net.neighborhood("v", "l1")))

# ----------------------------------------------------------------------
# Two layers and the alpha threshold.  multilayer_neighborhood(x, alpha)
# keeps the nodes connected to x on at least alpha distinct layers, so
# raising alpha makes the notion of "neighbour" stricter.

two = MultiLayerNetwork()
for a, b in [("x", "y"), ("x", "u"), ("y", "u")]:
    two.add_edge(a, b, "l1")
    two.add_edge(b, a, "l1")
for a, b in [("x", "y"), ("x", "u")]:
    two.add_edge(a, b, "l2")
    two.add_edge(b, a, "l2")

print()
print("MN(x, 1) =", sorted(two.multilayer_neighborhood("x", 1)))
print("MN(x, 2) =", sorted(two.multilayer_neighborhood("x", 2)))
print("MN(y, 2) =", sorted(two.multilayer_neighborhood("y", 2)))

# The alpha=2 flattening keeps only the pairs connected on both layers;
# they are exactly the candidate pairs of the alpha=2 measure table.
print("alpha=2 flattened pairs:", clecc_table(two, 2).pairs())

# ----------------------------------------------------------------------
# ECC: the single-layer baseline.  On a triangle every edge closes its
# one possible triangle, so the value is (1+1)/1 = 2; on a path there
# is no triangle to close and the value is undefined (None).

triangle = MultiLayerNetwork()
for a, b in [("a", "b"), ("b", "c"), ("c", "a")]:
    triangle.add_edge(a, b, "l1")
    triangle.add_edge(b, a, "l1")

path = MultiLayerNetwork()
for a, b in [("a", "b"), ("b", "c")]:
    path.add_edge(a, b, "l1")
    path.add_edge(b, a, "l1")

print()
print("ecc(triangle a-b) =", ecc(triangle, "a", "b"))
print("ecc(path a-b)     =", ecc(path, "a", "b"))

# ----------------------------------------------------------------------
# CLECC: the cross-layer measure this library is about.  It is the
# fraction of alpha-neighbours a pair has in common, and it is defined
# on every pair, not only on edges.  1.0 means the two nodes live in
# exactly the same alpha-neighbourhood; 0.0 means they share nobody.

print()
print("clecc(triangle a-b, alpha=1) =", clecc(triangle, "a", "b", 1))
print("clecc(path a-b, alpha=1)     =", clecc(path, "a", "b", 1))

# On the two-layer toy above, x and y are each other's only common
# ground at alpha=2: they share no third neighbour, so the value drops
# to 0 even though they are connected on both layers.
print("clecc(two-layer x-y, alpha=2) =", clecc(two, "x", "y", 2))
