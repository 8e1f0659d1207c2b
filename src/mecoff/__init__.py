"""Device-energy-efficient multi-task offloading: models, search, tuning
and a benchmark harness."""

from .scenario import demo_config, generate
from .tune import optimize_user

__version__ = "0.1.0"
