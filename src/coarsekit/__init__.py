"""Window checks for coarse structures on finitely generated groups.

Everything runs on finite windows: balls in the word metric, families
parametrized by a radius, and size traces that either stabilize (evidence
of boundedness, reported with the witness set) or keep growing (a genuine
counterexample at that scale).
"""

__version__ = "0.1.0"

# every name is imported from its module; importing the package loads each
# module but the CLI, and perfbench/child.py traces the modules loaded then
from . import errors, groups, spaces, families, structures, maps, actions, group_checks, transfer
