"""Traffic generation substrate: distributions, fGn, on/off, M/G/inf, traces."""

from repro import _lazy

_lazy.export_lazily(globals(), {
    "Pareto": "distributions",
    "TruncatedPareto": "distributions",
    "Exponential": "distributions",
    "pareto_alpha_for_hurst": "distributions",
    "hurst_for_pareto_alpha": "distributions",
    "fgn_autocovariance": "fgn",
    "fgn_davies_harte": "fgn",
    "fgn_hosking": "fgn",
    "fbm": "fgn",
    "OnOffModel": "onoff",
    "OnOffSource": "onoff",
    "MGInfinityModel": "mginf",
    "ParetoLRDModel": "copula",
    "PacketSizeMix": "arrivals",
    "packetize": "arrivals",
    "zipf_weights": "arrivals",
    "synthetic_trace": "synthetic",
    "onoff_trace": "synthetic",
    "fgn_trace": "synthetic",
    "synthetic_packet_trace": "synthetic",
    "SYNTHETIC_MEAN": "synthetic",
    "SYNTHETIC_ALPHA": "synthetic",
    "SYNTHETIC_HURST": "synthetic",
    "BellLabsLikeTrace": "belllabs",
    "bell_labs_like_process": "belllabs",
    "BELL_LABS_HURST": "belllabs",
    "BELL_LABS_ALPHA": "belllabs",
    "BELL_LABS_MEAN_RATE": "belllabs",
})
