#!/usr/bin/env python3
"""Cover compactness with enlarged subcovers, witnesses included.

A set is compact for (ambient family, enlarger) when every ambient
cover has a finite subfamily whose enlargements still cover it.  The
fast decision procedure scans avoidance families per point; the literal
quantifier evaluation runs alongside as an oracle.  Failing verdicts
always carry a witness point and a minimal failing cover.
"""

from topolab import (
    CoverSystem,
    OpPair,
    base_report,
    brute_force_compact,
    catalog,
    closed_space_predicates,
    compactness_kind,
    discrete,
    is_compact,
    named_set_class,
    sierpinski,
    space_compactness_flags,
)

s2 = sierpinski()
ops = catalog(s2)


def show(mask):
    return "{" + ",".join(s2.ground.labels_of_mask(mask)) + "}"


# --- a failing verdict with its witnesses ------------------------------------
cs = CoverSystem(tuple(s2.subsets()), ops["sint"])
verdict = is_compact(cs, 0b10)
print("{b} compact for (P(X), sint):", verdict.compact)
print("witness point:", s2.ground.labels[verdict.witness_point])
print("witness cover:", [show(u) for u in verdict.witness_cover])
# sint{b} is empty, so the cover {{b}} can never be enlarged over b
print("literal oracle agrees:", brute_force_compact(cs, 0b10) == verdict.compact)

# --- dominating enlargers make everything compact -----------------------------
always = CoverSystem(s2.opens, ops["cl"])
print("\nclosure-enlarged open covers: every subset compact:",
      all(is_compact(always, a).compact for a in s2.subsets()))

# --- the named classes ---------------------------------------------------------
print("\nnamed classes of {b}:",
      {k: named_set_class(s2, 0b10, k) for k in ("H", "N", "s", "S", "compact")})

# --- ten equivalent faces of one notion ----------------------------------------
# the ten filter statements are decided by three of the pair's statements
faces = ("pair", "ultra", "closed")
theta = OpPair(ops["int"], ops["cl"])
print("\nten filter-flavoured statements agree:",
      len({compactness_kind(theta, 0b10, k) for k in faces}) == 1)

lean = OpPair(ops["identity"], ops["sint"])
verdicts = {compactness_kind(lean, 0b10, k) for k in faces}
print("they also agree when everything is false:", len(verdicts) == 1,
      "(cover flag:", str(compactness_kind(lean, 0b10, "pair")) + ")")

# --- kind equivalences under the base hypothesis --------------------------------
# the four complement statements hold for every set, so the seven agree
# exactly when the set is compact in all three cover kinds
semi_reg = OpPair(ops["int"], ops["introcl"])
print("\n(int,introcl) base hypothesis:", base_report(semi_reg).hypothesis_d,
      "and all seven statements agree:",
      all(compactness_kind(semi_reg, s2.full, k) for k in ("pair", "base", "pair_open")))
space_flags = space_compactness_flags(semi_reg)
print("space-level record agrees too:", space_flags.agree())

# --- derived space predicates ----------------------------------------------------
d2 = discrete(2)
rep = closed_space_predicates(d2, OpPair(catalog(d2)["int"], catalog(d2)["cl"]))
print("\ndiscrete two-point space:", rep)
rep = closed_space_predicates(s2, theta)
print("Sierpinski (not separated):", rep)
