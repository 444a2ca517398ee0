"""Profit-maximizing pickup-and-delivery selection workbench."""

from .core import (DeliveryRoutingSolution, Instance, InstanceMeta,
                   LocationGraph, Request, Truck, TruckPlan, ValidationReport,
                   Violation, ViolationKind, load_profile, validate_route,
                   validate_solution, xi)
from .enc_location import (decode_location, encode_location,
                           predicted_counts_location)
from .enc_request import (decode_request, encode_request,
                          predicted_counts_request)
from .harness import (BenchRecord, SolveOutcome, SolverAdapter, bench,
                      enumerate_xi, oracle, solve)
from .instgen import (TsplibSample, generate_family, parse_instance,
                      parse_tsplib, serialize_instance)
from .mipir import (MipModel, Sense, VarKind, census, emit_lp,
                    parse_solution)

__all__ = [name for name in dir() if not name.startswith("_")]
