"""OD-flow monitoring: the paper's motivating scenario, end to end.

"We need to know the mean value of the aggregated traffic of 2 specified
OD flows" (Sec. I).  This example:

1. synthesises a Bell-Labs-like packet trace (hundreds of OD pairs),
2. round-trips it through the CSV trace format (6-decimal timestamps)
   and then the binary one, and checks that both reads agree,
3. builds the flow table and picks the two busiest OD pairs,
4. bins their aggregate into f(t),
5. monitors f(t) with streaming OnlineBSS versus plain systematic
   sampling at the same base rate.

Run:  python examples/odflow_monitoring.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import repro
from repro.core import OnlineBSS

SEED = 11
N_BINS = 4096
BASE_INTERVAL = 200  # granules between regular samples


def main() -> None:
    generator = repro.BellLabsLikeTrace(n_hosts=32, n_pairs=60, bin_width=0.1)
    packets = generator.packets(N_BINS, rng=SEED)
    print(f"packet trace: {len(packets)} packets, "
          f"{packets.total_bytes / 1e6:.2f} MB over {packets.duration:.0f}s")

    # Round-trip through both on-disk formats, as a real pipeline would:
    # the CSV keeps timestamps to the microsecond, the binary file keeps
    # what the CSV read gave exactly.
    with tempfile.TemporaryDirectory() as tmp:
        csv_path = Path(tmp) / "capture.csv"
        rpt_path = Path(tmp) / "capture.rpt"
        repro.write_trace(packets, csv_path)
        packets = repro.read_trace(csv_path)
        repro.write_trace(packets, rpt_path)
        if repro.read_trace(rpt_path) != packets:
            raise RuntimeError("the .csv and .rpt reads disagree")
    print(f"re-read from disk: {len(packets)} packets (.csv, then .rpt)")

    flows = repro.FlowTable(packets)
    top = flows.top_flows(2)
    pairs = [flow.od_pair for flow in top]
    print("monitored OD pairs:",
          ", ".join(f"{s}->{d} ({f.bytes / 1e3:.0f} kB)"
                    for (s, d), f in zip(pairs, top)))

    process = repro.bin_od_flow(packets, pairs, bin_width=0.1, n_bins=N_BINS,
                                t0=0.0)
    true_mean = process.mean
    print(f"\nmonitored f(t): {len(process)} bins, true mean "
          f"{true_mean:.1f} bytes/bin")

    systematic = repro.SystematicSampler(BASE_INTERVAL).sample(process)
    monitor = OnlineBSS(BASE_INTERVAL, extra_samples=6, epsilon=1.0,
                        n_presamples=5)
    monitor.process(process.values)
    bss = monitor.result()

    for name, result in (("systematic", systematic), ("OnlineBSS", bss)):
        print(f"{name:>12}: {result.n_samples:4d} samples, "
              f"mean={result.sampled_mean:9.1f}, "
              f"eta={result.eta(true_mean):+.3f}")
    print(f"\nBSS overhead: {bss.n_extra}/{bss.n_base} extra samples "
          f"({bss.n_extra / bss.n_base:.2%})")


if __name__ == "__main__":
    main()
