"""Statistics containers shared by the simulator and the analysis."""
from .counters import MISS_CATEGORIES, LatencyAccumulator, RunStats
from .io import stats_from_dict, stats_to_dict
