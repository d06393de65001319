"""Constructive edge colouring of bounded-degree multigraphs.

The package colours the edges of a multigraph with maximum degree Delta and
edge multiplicity pi using Delta + pi colours, by repeatedly augmenting along
chains (fans plus alternating paths).  On top of the constructive core sit a
round-based scheduler that only applies short chains, exact-arithmetic audits
of the combinatorial bounds driving it, and an orientation routine derived
from a full colouring.

Modules:
    multigraph  bounded-degree multigraphs, generation, the text format
    colouring   partial proper colourings and the shift along a chain
    chains      alternating paths, fans, augmenting chains
    iterated    second-order chains through distant path edges
    audit       exact counting checks and bound verification
    engine      sequential colourer, round scheduler, orientation
    cli         command-line front end

Importing the package loads none of them: each name below imports its home
module on first access (PEP 562), so a caller pays only for the modules it
uses.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

# every public name and the module that defines it
_HOME = {
    "Multigraph": "multigraph",
    "build": "multigraph",
    "generate_random": "multigraph",
    "Colouring": "colouring",
    "is_proper": "colouring",
    "AlternatingPath": "chains",
    "Fan": "chains",
    "VizingChain": "chains",
    "max_fan": "chains",
    "repeated_colour_indices": "chains",
    "vizing_chain": "chains",
    "SuitableType": "iterated",
    "ScanEntry": "iterated",
    "superb_scan": "iterated",
    "MaxRoundsExceeded": "engine",
    "Orientation": "engine",
    "colour_sequential": "engine",
    "orient": "engine",
    "run_scheduler": "engine",
    "AuditGraph": "audit",
    "AuditReport": "audit",
    "DegreeBoundCheck": "audit",
    "FractionBound": "audit",
    "SuperbCount": "audit",
    "audit_report": "audit",
    "build_audit_graph": "audit",
    "check_unimprovable": "audit",
    "superb_count_check": "audit",
    "uncoloured_fraction_bounds": "audit",
}

__all__ = list(_HOME)


def __getattr__(name: str):
    try:
        home = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f"{__name__}.{home}"), name)
