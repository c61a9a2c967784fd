#include "obs/merge.h"

#include <queue>

namespace acdc::obs {

namespace {

// One input stream for the k-way merge: a cursor plus a map from the
// stream's local source ids to merged ids.
struct Cursor {
  const std::vector<TraceEvent>* events = nullptr;
  std::size_t pos = 0;
  std::size_t stream = 0;  // shard index: the equal-timestamp tiebreak
  std::vector<std::uint32_t> source_map;

  const TraceEvent& head() const { return (*events)[pos]; }
  bool done() const { return pos >= events->size(); }
};

struct CursorOrder {
  // std::priority_queue is a max-heap; invert so the smallest
  // (t, stream) pair surfaces first. Ties within one stream cannot occur:
  // each stream has exactly one cursor in the heap.
  bool operator()(const Cursor* a, const Cursor* b) const {
    const sim::Time ta = a->head().t;
    const sim::Time tb = b->head().t;
    if (ta != tb) return ta > tb;
    return a->stream > b->stream;
  }
};

std::uint32_t intern(std::vector<std::string>& table, const std::string& s) {
  for (std::size_t i = 0; i < table.size(); ++i) {
    if (table[i] == s) return static_cast<std::uint32_t>(i);
  }
  table.push_back(s);
  return static_cast<std::uint32_t>(table.size() - 1);
}

}  // namespace

MergedTrace merge_streams(const std::vector<EventStream>& streams) {
  MergedTrace out;
  out.sources.push_back("");  // id 0: unattributed

  std::vector<Cursor> cursors;
  cursors.reserve(streams.size());
  std::size_t total = 0;
  for (std::size_t i = 0; i < streams.size(); ++i) {
    Cursor c;
    c.events = &streams[i].events;
    c.stream = i;
    c.source_map.reserve(streams[i].sources.size());
    for (const std::string& name : streams[i].sources) {
      c.source_map.push_back(name.empty() ? 0 : intern(out.sources, name));
    }
    total += streams[i].events.size();
    cursors.push_back(std::move(c));
  }
  out.events.reserve(total);

  std::priority_queue<Cursor*, std::vector<Cursor*>, CursorOrder> heap;
  for (Cursor& c : cursors) {
    if (!c.done()) heap.push(&c);
  }
  while (!heap.empty()) {
    Cursor* c = heap.top();
    heap.pop();
    TraceEvent ev = c->head();
    ev.source = ev.source < c->source_map.size() ? c->source_map[ev.source] : 0;
    out.events.push_back(ev);
    ++c->pos;
    if (!c->done()) heap.push(c);
  }
  return out;
}

MergedTrace merge_recorders(const std::vector<FlightRecorder*>& recs) {
  // Snapshot each ring (oldest first) into a flat vector; rings are small
  // and bounded, so the copy is cheap relative to the merge.
  std::vector<EventStream> streams;
  streams.reserve(recs.size());
  for (const FlightRecorder* rec : recs) {
    if (rec == nullptr) continue;
    EventStream s;
    s.events.reserve(rec->size());
    rec->for_each([&](const TraceEvent& ev) { s.events.push_back(ev); });
    s.sources = rec->sources();
    streams.push_back(std::move(s));
  }
  return merge_streams(streams);
}

}  // namespace acdc::obs
