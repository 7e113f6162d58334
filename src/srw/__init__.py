"""String rewriting with decreasing diagrams.

A small toolkit for string rewriting systems: redex enumeration,
reachability, critical pairs, elementary reduction diagrams with a
decreasingness check, diagram tiling for peaks and zigzags, semi-normal
forms and attractors, normal forms of words modulo commutations
(traces), and a fully worked family of rewriting systems for the 0-Hecke
monoids together with the cell families that make their presentations
coherent.  Reachability, normal forms and word equality need a bound on
a system with lengthening rules.
"""

__all__ = [
    "words", "order", "critical", "diagrams", "seminormal", "traces", "hecke", "cli",
]
