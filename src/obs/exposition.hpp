// Rendering and parsing of metrics snapshots in the Prometheus text
// exposition format, the one form obs::MetricsExporter publishes
// (`metrics.prom`).
//
// The document opens with the snapshot header as two unlabeled gauges
// (`trinity_metrics_sequence`, `trinity_metrics_uptime_seconds`), then
// `# HELP` / `# TYPE` per family and one sample line per series; histograms
// expand to cumulative `_bucket{le=...}` samples plus `_sum` and `_count`.
//
// parse_prometheus_text() is the strict round-trip counterpart and the one
// reader, used by tests and by `trinity_top`, which tails the published file. Every
// sample must belong to a family that declared HELP and TYPE, names must
// match the Prometheus charset, and histogram bucket series must be
// cumulative and close with `+Inf`.

#pragma once

#include <string>

#include "obs/metrics.hpp"

namespace trinity::obs {

/// Prometheus text exposition format (version 0.0.4), header gauges first.
std::string to_prometheus(const MetricsSnapshot& snapshot);

/// Strict parse of the text exposition emitted by to_prometheus(). Throws
/// std::runtime_error (with a line number) on: samples without a preceding
/// HELP+TYPE pair, invalid or repeated metric/label names, a last line with
/// no newline (a truncated document), non-cumulative histogram buckets,
/// bucket or `_count` values that are not integers in [0, 2^64), or a
/// histogram missing its `+Inf` bucket / `_sum` / `_count`. The header
/// gauges are lifted into `sequence` and `uptime_s` (both optional; absent
/// means 0) rather than into `families`. Returns per-bucket (de-cumulated)
/// counts, so parse(to_prometheus(s)) compares equal to s.
MetricsSnapshot parse_prometheus_text(const std::string& text);

}  // namespace trinity::obs
