"""Morita equivalence of operator quantales on finite sup-lattices.

The pipeline: finite sup-lattices (lattice), their tensor products and
multimorphisms (tensor), quantales of sup-endomorphisms (quantale),
modules and bimodules over them (modules), the equivalence between
condition-checked pairing tables and full Morita contexts (engine), and
an exhaustive small-scale census plus text formats and a CLI
(census, io, cli).
"""

from .census import CensusRecord, CensusTask, run_census
from .engine import (ImprimitivityBimodule, InvolutiveWitness, MoritaContext,
                     MoritaPairWitness, as_pair_witness,
                     build_context_from_pair, build_involutive_context,
                     check_imprimitivity, check_involutive_conditions,
                     check_morita_context, check_pair_conditions,
                     extract_pair_from_context)
from .enumeration import (automorphisms, canonical_key, enumerate_lattices,
                          find_isomorphism)
from .errors import (ConditionReport, ConditionsFailed, ContextInvalid,
                     DomainMismatch, FormatError, MissingInvolution,
                     MissingJoin, MoritaError, NoBottom, NotAMultimorphism,
                     NotAPartialOrder, NotCompositionClosed, NotWellDefined,
                     ResourceLimit, ShapeMismatch, StarNotWellDefined, Verdict)
from .lattice import (FiniteSupLattice, chain, diamond, join_closure, m3, n5,
                      validate_lattice)
from .modules import (Bimodule, ModuleAction, check_bimodule, check_module,
                      conjugate_bimodule, essential_part, is_m_regular,
                      is_separated, regular_bimodule)
from .quantale import (InvolutiveQuantale, OperatorQuantale, Quantale,
                       as_involutive_quantale, check_quantale, endo_quantale,
                       image_subquantale, is_quantale_involution)
from .tensor import (Multimorphism, MultiTensorLattice, as_multimorphism,
                     enumerate_multimorphisms, is_multimorphism,
                     lift_multimorphism, tensor_product)

__version__ = "0.1.0"
