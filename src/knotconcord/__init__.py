"""knotconcord: exact-arithmetic concordance obstructions.

Subpackages by topic: cyclo (exact cyclotomic/Laurent arithmetic), seifert
(Seifert matrices, Alexander polynomials, signatures), cover (branched
cyclic covers and linking forms), metabolizers (invariant metabolizers and
character spaces), cassongordon (signature-growth and discriminant
obstructions), su2 (representation-arc signature counts), diagram
(metacyclic labelings of planar diagrams), cli (command line front end).
"""

__version__ = "0.1.0"
