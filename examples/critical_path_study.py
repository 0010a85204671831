"""Critical-path study: where does RENO's improvement come from? (Figure 9)

Runs a few kernels with per-instruction timing columns (``collect_timing``;
either cycle-loop backend fills them), builds the
Fields-style critical-path breakdown for the baseline, CF+ME and full RENO,
and prints how ALU criticality melts into fetch criticality once RENO
collapses the ALU operations — the effect §4.3 of the paper describes.

Run with:  python examples/critical_path_study.py
"""

from repro.analysis import analyze_critical_path
from repro.core import RenoConfig, simulate_workload

WORKLOADS = ["gsm_decode_like", "gzip_like", "micro_pointer_chase"]
CONFIGS = {"BASE": None, "CF+ME": RenoConfig.reno_cf_me(), "RENO": RenoConfig.reno_default()}


def main():
    header = f"{'benchmark':22s}{'config':>8s}{'fetch':>8s}{'alu':>8s}{'load':>8s}{'mem':>8s}{'commit':>8s}{'cycles':>9s}"
    print(header)
    print("-" * len(header))
    for name in WORKLOADS:
        for label, config in CONFIGS.items():
            outcome = simulate_workload(name, reno=config, collect_timing=True)
            breakdown = analyze_critical_path(outcome.timing.timing_records)
            fractions = breakdown.fractions()
            print(f"{name:22s}{label:>8s}"
                  f"{fractions['fetch']:>8.1%}{fractions['alu_exec']:>8.1%}"
                  f"{fractions['load_exec']:>8.1%}{fractions['load_mem']:>8.1%}"
                  f"{fractions['commit']:>8.1%}{outcome.cycles:>9d}")
        print()


if __name__ == "__main__":
    main()
