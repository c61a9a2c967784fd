// Merging per-shard flight-recorder streams into one globally time-ordered
// trace.
//
// The parallel engine gives every shard its own FlightRecorder, so a
// sharded run produces S rings whose events interleave in real time.
// merge_recorders() k-way merges them into a single stream ordered by
// (timestamp, shard index, intra-shard position). Intra-shard order is
// preserved for equal timestamps — the forensics analyzer relies on that
// (a kTcpSendStall immediately precedes the kPktOrigin it annotates, both
// emitted at the same instant by the same shard) — and the tiebreak on
// shard index makes the merged stream deterministic for a fixed shard
// count.
//
// Source ids are re-interned into a merged table, so a MergedTrace is
// self-contained: exporters and the forensics analyzer consume it exactly
// like a single recorder.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/trace_event.h"

namespace acdc::obs {

struct MergedTrace {
  std::vector<TraceEvent> events;    // globally time-ordered
  std::vector<std::string> sources;  // merged intern table; id 0 = ""

  const std::string& source_name(std::uint32_t id) const {
    return id < sources.size() ? sources[id] : sources[0];
  }

  std::size_t size() const { return events.size(); }
  bool empty() const { return events.empty(); }
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const TraceEvent& ev : events) fn(ev);
  }
};

// Merges the retained events of every recorder (oldest first per ring).
// Null entries are skipped; a single-recorder merge is a cheap copy with
// identical ordering, so serial and sharded paths share one code path.
MergedTrace merge_recorders(const std::vector<FlightRecorder*>& recs);

// Same merge rule over raw event vectors with per-stream source tables —
// the import path (tools/acdc_forensics reading per-shard JSONL exports)
// funnels through this so on-line and off-line analysis agree.
struct EventStream {
  std::vector<TraceEvent> events;    // must be time-ordered
  std::vector<std::string> sources;  // index 0 reserved for ""
};
MergedTrace merge_streams(const std::vector<EventStream>& streams);

}  // namespace acdc::obs
