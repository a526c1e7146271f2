"""Co-design planner for two-device edge inference pipelines: roofline
analysis, branch-fusion algebra, latency/accuracy plan search, and a
tandem-queue simulator to validate the analytical model.

Import the submodule that defines a name, e.g. ``from codesign.cost_model
import evaluate_plan``.  ``import codesign`` loads no submodule, so the
commands that never touch numpy never import it.
"""

__version__ = "0.1.0"
