"""Constructive edge colouring of bounded-degree multigraphs.

The package colours the edges of a multigraph with maximum degree Delta and
edge multiplicity pi using Delta + pi colours, by repeatedly augmenting along
chains (fans plus alternating paths).  On top of the constructive core sit a
round-based scheduler that only applies short chains, exact-arithmetic audits
of the combinatorial bounds driving it, and an orientation routine derived
from a full colouring.

Modules:
    multigraph  bounded-degree multigraphs, generation, serialisation
    colouring   partial proper colourings, chains, shifts
    chains      alternating paths, fans, augmenting chains
    iterated    second-order chains through distant path edges
    audit       exact counting checks and bound verification
    engine      sequential colourer, round scheduler, orientation
    cli         command-line front end
"""

from __future__ import annotations

from .multigraph import Multigraph, build, generate_random
from .colouring import Colouring, is_proper
from .chains import (
    AlternatingPath,
    Fan,
    VizingChain,
    max_fan,
    repeated_colour_indices,
    vizing_chain,
)
from .iterated import (
    Classification,
    ConditionalFan,
    ScanEntry,
    SuitableEdge,
    SuitableType,
    superb_scan,
)
from .engine import (
    MaxRoundsExceeded,
    Orientation,
    ScheduleState,
    colour_sequential,
    orient,
    run_scheduler,
)
from .audit import (
    AuditGraph,
    AuditReport,
    DegreeBoundCheck,
    FractionBound,
    SuperbCount,
    audit_report,
    build_audit_graph,
    check_degree_bounds,
    check_unimprovable,
    superb_count_check,
    uncoloured_fraction_bounds,
)

__version__ = "0.1.0"

__all__ = [
    "Multigraph",
    "build",
    "generate_random",
    "Colouring",
    "is_proper",
    "AlternatingPath",
    "Fan",
    "VizingChain",
    "max_fan",
    "repeated_colour_indices",
    "vizing_chain",
    "SuitableType",
    "SuitableEdge",
    "ConditionalFan",
    "Classification",
    "ScanEntry",
    "superb_scan",
    "MaxRoundsExceeded",
    "Orientation",
    "ScheduleState",
    "colour_sequential",
    "orient",
    "run_scheduler",
    "AuditGraph",
    "AuditReport",
    "DegreeBoundCheck",
    "FractionBound",
    "SuperbCount",
    "audit_report",
    "build_audit_graph",
    "check_degree_bounds",
    "check_unimprovable",
    "superb_count_check",
    "uncoloured_fraction_bounds",
]
