"""Chamber systems of small reflection groups run through the union-of-
chambers verifier, level by level: the length index always passes, and a
deliberately scrambled index shows what a failure witness looks like."""

import argparse
import itertools

from artin import shelling
from artin.diagram import is_finite_type, parse_diagram


def show(rep):
    print(f"  passed={rep.passed} conclusion={rep.conclusion}")
    for lv in rep.levels:
        print(f"  level {lv.level}: claim A {lv.claim_a_passed}/{lv.chambers} chambers, "
              f"claim B {lv.claim_b_passed}/{lv.pairs} pairs")
    for tag, bad in (("A", rep.claim_a), ("B", rep.claim_b)):
        if bad:
            print(f"  claim {tag}: {len(bad)} failing, first witness: {bad[0].witness}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("diagrams", nargs="*", default=["I2(3)", "I2(4)", "A3"],
                    help="preset names or diagram JSON (rank >= 2)")
    ap.add_argument("--ball", type=int, default=3,
                    help="truncation radius for infinite-type diagrams")
    args = ap.parse_args()

    for name in args.diagrams:
        d = parse_diagram(name)
        ball = "all" if is_finite_type(d)[0] else args.ball
        cc, idx = shelling.coxeter_chamber_system(d, ball=ball)
        print(f"{name}: {len(cc.chambers)} chambers of dimension {cc.n}")
        show(shelling.verify_claims(cc, idx))

    print("\nscrambled index on I2(3):")
    cc, idx = shelling.coxeter_chamber_system(parse_diagram("I2(3)"))
    bad = list(idx)
    bad[bad.index(3)] = 1
    bad[bad.index(2)] = 3
    show(shelling.verify_claims(cc, bad))

    print("\ntetrahedron boundary, all facet orders:")
    tet = shelling.ChamberComplex(
        2, tuple(frozenset(c) for c in itertools.combinations("abcd", 3))
    )
    good = sum(shelling.is_shelling(tet, order).ok
               for order in itertools.permutations(range(4)))
    print(f"  {good}/24 orders are shellings")


if __name__ == "__main__":
    main()
