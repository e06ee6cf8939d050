"""Iterated shared-memory distributed computing with safe-consensus objects.

Executable models of the three write/scan/invoke orderings, the pairwise
coalition consensus protocol that needs exactly C(n,2) shared objects, the
connectivity machinery behind the matching lower bound, and the Johnson
graph combinatorics it rests on.
"""

__version__ = "0.1.0"

from .model import (  # noqa: F401
    GlobalState,
    LocalState,
    indistinguishability_set,
    invocation_spec,
    make_initial_state,
    resolve_safe_consensus,
)
from .protocols import (  # noqa: F401
    ProtocolAutomaton,
    coalition_group,
    gamma,
    protocol_2cc,
    protocol_consensus_wor,
    transform_owr_to_wro,
    transform_wro_to_owr,
    tup,
    validate_coalitions_tuple,
)
