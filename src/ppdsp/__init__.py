"""Profit-maximizing pickup-and-delivery selection workbench.

Names are imported from the submodule that defines them (`from
ppdsp.harness import solve`); `import ppdsp` loads no submodule, so running
one submodule, such as the solver child `python -m ppdsp.highs_solver`,
imports none of the others.
"""
