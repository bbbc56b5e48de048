"""cutlab: decide the cut-property of finite groups.

A finite group has the cut-property when the central units of its integral
group ring are all trivial; equivalently, every element power x^j with j
coprime to the order of x is conjugate to x or to x^-1.  This package
builds small groups from declarative recipes, decides the property by the
conjugacy criterion (with an independent brute-force oracle), and
cross-validates the published structural characterizations on a built-in
corpus.
"""

__version__ = "0.1.0"

from .constructors import (
    GroupSpecDescriptor,
    abelian,
    construct,
    cyclic,
    dicyclic,
    heisenberg,
    metacyclic,
    permutation,
    product,
    quotient_spec,
    symmetric,
    table_spec,
)
from .cut_engine import Classification, CutVerdict, classify, decide_cut, decide_cut_bruteforce
from .group_core import (
    ConjugacyPartition,
    FiniteGroup,
    StructuralProfile,
    SubgroupHandle,
    build_from_permutations,
    build_from_table,
    center,
    commutator_subgroups,
    direct_product,
    quotient,
    subgroup_generated,
)
from .characterizations import (
    TheoremReport,
    cor_class2,
    prop_class2_factor,
    remark_two_group_sum,
    thm_nilpotent,
    thm_odd,
    thm_solvable_eppo,
    verify_equivalences,
)
from .corpus import CorpusEntry, CorpusResult, RunConfig, builtin_corpus, run_corpus

__all__ = [
    "__version__",
    "GroupSpecDescriptor",
    "abelian",
    "construct",
    "cyclic",
    "dicyclic",
    "heisenberg",
    "metacyclic",
    "permutation",
    "product",
    "quotient_spec",
    "symmetric",
    "table_spec",
    "Classification",
    "CutVerdict",
    "classify",
    "decide_cut",
    "decide_cut_bruteforce",
    "ConjugacyPartition",
    "FiniteGroup",
    "StructuralProfile",
    "SubgroupHandle",
    "build_from_permutations",
    "build_from_table",
    "center",
    "commutator_subgroups",
    "direct_product",
    "quotient",
    "subgroup_generated",
    "TheoremReport",
    "cor_class2",
    "prop_class2_factor",
    "remark_two_group_sum",
    "thm_nilpotent",
    "thm_odd",
    "thm_solvable_eppo",
    "verify_equivalences",
    "CorpusEntry",
    "CorpusResult",
    "RunConfig",
    "builtin_corpus",
    "run_corpus",
]
