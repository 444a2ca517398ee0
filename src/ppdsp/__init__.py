"""Profit-maximizing pickup-and-delivery selection workbench.

The names below are loaded from their submodule on first use (PEP 562), so
that running one submodule, such as the solver child `python -m
ppdsp.highs_solver`, imports none of the others.
"""

import importlib

# public name -> the submodule that defines it
_SOURCES = {name: module for module, names in (
    ("core", "DeliveryRoutingSolution Instance InstanceMeta LocationGraph Request "
             "Truck TruckPlan ValidationReport Violation ViolationKind load_profile "
             "validate_route validate_solution xi"),
    ("enc_location", "decode_location encode_location predicted_counts_location"),
    ("enc_request", "decode_request encode_request predicted_counts_request"),
    ("harness", "BenchRecord SolveOutcome SolverAdapter bench enumerate_xi oracle solve"),
    ("instgen", "TsplibSample generate_family parse_instance parse_tsplib "
                "serialize_instance"),
    ("mipir", "MipModel Sense VarKind census emit_lp parse_solution"),
) for name in names.split()}

# the names and the submodules that hold them
__all__ = sorted({*_SOURCES, *_SOURCES.values()})


def __getattr__(name):
    # an unknown name raises AttributeError, so that `from ppdsp import x`
    # goes on to import a submodule x
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_SOURCES[name]}", __name__), name)
