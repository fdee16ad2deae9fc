"""The paper's workloads: sort, word count, Big Data Benchmark, ML."""

from repro.workloads.bigdata import (BdbScale, QUERIES, generate_bdb_tables,
                                     generate_rankings, run_query)
from repro.workloads.ml import (MlWorkload, make_ml_context,
                                run_ml_iteration, run_ml_workload)
from repro.workloads.sortgen import (SortWorkload, generate_sort_input,
                                     run_sort, sort_boundaries)
from repro.workloads.wordcount import generate_text_input, word_count

__all__ = [
    "BdbScale",
    "QUERIES",
    "generate_bdb_tables",
    "generate_rankings",
    "run_query",
    "MlWorkload",
    "make_ml_context",
    "run_ml_iteration",
    "run_ml_workload",
    "SortWorkload",
    "generate_sort_input",
    "run_sort",
    "sort_boundaries",
    "generate_text_input",
    "word_count",
]
