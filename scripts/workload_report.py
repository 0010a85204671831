"""Developer utility: print dynamic instruction counts and mixes for all workloads."""

from repro.functional import FunctionalSimulator, mix_statistics
from repro.workloads import list_workloads


def main() -> None:
    for suite in ("specint", "mediabench", "micro"):
        workloads = list_workloads(suite)
        print(f"== {suite} ({len(workloads)} workloads)")
        totals = {"moves": 0.0, "addi": 0.0, "loads": 0.0, "stores": 0.0, "branches": 0.0, "n": 0}
        for workload in workloads:
            result = FunctionalSimulator(workload.build(1), max_instructions=500_000).run()
            mix = mix_statistics(result.trace, result.program)
            print(
                f"  {workload.name:26s} {result.dynamic_count:7d}  "
                f"mov={mix.move_fraction:5.1%} addi={mix.reg_imm_add_fraction:5.1%} "
                f"ld={mix.load_fraction:5.1%} st={mix.store_fraction:5.1%} "
                f"br={mix.branch_fraction:5.1%}"
            )
            totals["moves"] += mix.move_fraction
            totals["addi"] += mix.reg_imm_add_fraction
            totals["loads"] += mix.load_fraction
            totals["stores"] += mix.store_fraction
            totals["branches"] += mix.branch_fraction
            totals["n"] += 1
        n = totals["n"] or 1
        print(
            f"  {'AVERAGE':26s} {'':7s}  "
            f"mov={totals['moves']/n:5.1%} addi={totals['addi']/n:5.1%} "
            f"ld={totals['loads']/n:5.1%} st={totals['stores']/n:5.1%} "
            f"br={totals['branches']/n:5.1%}"
        )


if __name__ == "__main__":
    main()
