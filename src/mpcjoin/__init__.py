"""Deterministic simulator and exact analyzer for multi-round parallel
join strategies, with a block-I/O back end for single-machine replay."""

from .query import (Atom, FAMILIES, Query, QueryError, canonical_query,
                    parse_query, residual_query)
from .lp import INFEASIBLE, LPError, LPResult, OPTIMAL, UNBOUNDED, lp_solve_exact
from .analyzer import (FractionalWeighting, LoadBound, ShareAllocation,
                       load_bound_packing, load_bound_worstcase, psi_star,
                       psi_star_recursive, rho_star, share_lp, tau_star)
from .datagen import (DatabaseInstance, RelationInstance, agm_domain_sizes,
                      gen_agm_worst, gen_coin_flip, gen_lowerbound_matching,
                      gen_matching, gen_single_heavy, read_instance,
                      write_instance)
from .sim import Engine, LoadReport, RoutingError, oracle_join
from .algorithms import (ALGORITHMS, AlgorithmResult, InsufficientServers,
                         pick_algorithm, run_algorithm)
from .em import DryRuns, IOReport, MemoryOverflow, choose_po, simulate_em
from .rng import Stream, derive_key, hash_column

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
