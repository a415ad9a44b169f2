"""Packet-trace substrate: records, trace files, OD flows, binning."""

from repro.trace.binning import bin_bytes, bin_od_flow, bin_packets
from repro.trace.flows import FlowSummary, FlowTable, aggregate_flows, od_flow_trace
from repro.trace.io import (
    iter_trace_chunks,
    read_binary,
    read_csv,
    read_trace,
    write_binary,
    write_csv,
    write_trace,
)
from repro.trace.packet import PROTO_TCP, PROTO_UDP, PacketRecord, PacketTrace
from repro.trace.process import RateProcess

__all__ = [
    "PacketRecord",
    "PacketTrace",
    "PROTO_TCP",
    "PROTO_UDP",
    "RateProcess",
    "FlowSummary",
    "FlowTable",
    "aggregate_flows",
    "od_flow_trace",
    "bin_bytes",
    "bin_packets",
    "bin_od_flow",
    "read_csv",
    "write_csv",
    "read_binary",
    "write_binary",
    "read_trace",
    "write_trace",
    "iter_trace_chunks",
]
