"""Maximal-exact-match finding through parse indexing and safe discarding.

Public surface: parsing (prefix-free and minimizer parses over a shared
phrase dictionary), seqindex (occurrence counting and f-MEM search over
generic symbol sequences), filters (Bloom / counting / exact membership),
pseudomem (pseudo-MEM construction, lower bounds, discarding, final search),
oracle (brute-force ground truth), and the command-line interface in cli.
"""

from .errors import (EmptyInputError, IndexFormatError, ItemKindMismatch,
                     ParameterMismatch, ParsememError, WindowError)
from .filters import (BloomFilter, CountingBloomFilter, ExactFilter,
                      FilterParams, MembershipFilter, expected_fpr,
                      filter_build, size_for)
from .oracle import brute_force_count, brute_force_f_mems, top_t_cut
from .parsing import (MinimizerParams, ParsedString, PhraseDictionary,
                      RollingHasher, minimizer_parse, pfp_parse)
from .pseudomem import (CoarseSets, PseudoMem, coarse_sets, compute_lower_bound,
                        find_long_mems, kebab_pseudo_mems, parse_pseudo_mems,
                        refine, safe_discard)
from .seqindex import (Mem, OccurrenceIndex, StepCounter, SymbolSequence,
                       bml_mems, bml_top_t, find_f_mems)

__version__ = "0.1.0"
