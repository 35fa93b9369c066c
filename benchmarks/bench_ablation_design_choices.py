"""Ablations of CloudWalker's design choices (DESIGN.md §5).

Not a single paper artefact, but the sweeps that justify the paper's default
parameters and design choices on the wiki-vote stand-in:

* index walkers R (Monte-Carlo budget of the offline phase),
* walk truncation T,
* query walkers R' (Monte-Carlo budget of MCSP),
* linear-system solver (parallel Jacobi vs Gauss-Seidel vs direct).
"""

from repro.analysis import ablation
from repro.bench import reporting
from repro.graph import datasets


def test_ablation_design_choices(benchmark, results_dir):
    graph = datasets.load("wiki-vote")

    def run_sweeps():
        return {
            "index_walkers": ablation.index_walker_sweep(graph, [10, 30, 100, 300]),
            "walk_steps": ablation.walk_steps_sweep(graph, [2, 5, 10], reference_steps=14),
            "query_walkers": ablation.query_walker_sweep(
                graph, [100, 1_000, 10_000], n_pairs=20
            ),
            "solver": ablation.solver_sweep(graph),
        }

    result = benchmark.pedantic(run_sweeps, rounds=1, iterations=1)
    rendered = (
        reporting.format_table(result["index_walkers"],
                               title="Ablation — index walkers R (wiki-vote stand-in)")
        + "\n"
        + reporting.format_table(result["walk_steps"],
                                 title="Ablation — walk truncation T")
        + "\n"
        + reporting.format_table(result["query_walkers"],
                                 title="Ablation — query walkers R' (MCSP)")
        + "\n"
        + reporting.format_table(result["solver"],
                                 title="Ablation — linear-system solver")
    )
    reporting.save_results("ablation_design_choices", result, rendered, results_dir)
    print("\n" + rendered)

    walker_rows = {row["index_walkers"]: row for row in result["index_walkers"]}
    assert walker_rows[300]["diag_mean_abs_error"] <= walker_rows[10]["diag_mean_abs_error"]

    step_rows = {row["walk_steps"]: row for row in result["walk_steps"]}
    assert step_rows[10]["simrank_mean_abs_error"] <= step_rows[2]["simrank_mean_abs_error"]

    query_rows = {row["query_walkers"]: row for row in result["query_walkers"]}
    assert query_rows[10_000]["mean_abs_error"] <= query_rows[100]["mean_abs_error"]

    solver_rows = {row["solver"]: row for row in result["solver"]}
    # The parallel Jacobi solve the paper uses is as accurate as the
    # sequential alternatives at the default iteration count.
    assert abs(solver_rows["jacobi"]["diag_mean_abs_error"]
               - solver_rows["exact"]["diag_mean_abs_error"]) < 0.02
