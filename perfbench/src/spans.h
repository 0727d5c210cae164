// In-memory call spans for the benchmark's traced pass.
//
// Every call the benchmark makes into a library layer is wrapped in a
// ScopedSpan naming the layer ("doc", "store", "core", "fault", "serve",
// "wire", "netd", or "bench" for the benchmark's own input generation
// and correctness gates).  Spans nest by scope: the span open when a new
// one starts is its parent.  Each round of a traced pass opens one root
// span (layer "round") covering the round's whole wall time.
//
// With no Tracer installed (the untraced pass) a ScopedSpan reads no
// clock and records nothing, so the end-to-end numbers never pay for
// tracing.  Spans are kept in memory and written as JSON lines when the
// pass ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct SpanRecord {
  int run = 0;         // round index within the pass
  int parent = -1;     // index of the enclosing span, -1 for a root
  const char* layer;   // static string
  const char* name;    // static string
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

// Per-layer totals computed from a span set.
struct LayerTotals {
  double self_s = 0;        // summed self time
  std::uint64_t calls = 0;  // spans recorded
};

struct SpanSummary {
  double wall_s = 0;          // summed duration of the root spans
  double unattributed_s = 0;  // root self time: covered by no layer span
  std::map<std::string, LayerTotals> layers;  // root spans excluded
};

class Tracer {
 public:
  void BeginRun(int run) { run_ = run; }

  int Open(const char* layer, const char* name) {
    SpanRecord r;
    r.run = run_;
    r.parent = open_;
    r.layer = layer;
    r.name = name;
    r.start_ns = NowNs();
    spans_.push_back(r);
    open_ = static_cast<int>(spans_.size()) - 1;
    return open_;
  }

  void Close(int id) {
    spans_[static_cast<std::size_t>(id)].end_ns = NowNs();
    open_ = spans_[static_cast<std::size_t>(id)].parent;
  }

  // A closed child span whose interval is known from elsewhere (the
  // EpochDriver's phase clock): appended under the currently open span.
  void AddClosed(const char* layer, const char* name, std::uint64_t start_ns,
                 std::uint64_t end_ns) {
    SpanRecord r;
    r.run = run_;
    r.parent = open_;
    r.layer = layer;
    r.name = name;
    r.start_ns = start_ns;
    r.end_ns = end_ns;
    spans_.push_back(r);
  }

  const std::vector<SpanRecord>& spans() const { return spans_; }

  // Self time of a span = its duration minus the time its children
  // cover.  Children of one span never overlap (the benchmark is
  // single-threaded at the span level), so the covered time is the sum
  // of their durations.
  SpanSummary Summarize() const;

  // One JSON object per line: run, id, parent, layer, name, start_ns,
  // end_ns, self_ns.  Returns false when the file cannot be written.
  bool WriteJsonLines(const std::string& path) const;

 private:
  std::vector<double> SelfSeconds() const;

  int run_ = 0;
  int open_ = -1;
  std::vector<SpanRecord> spans_;
};

// The tracer of the current pass; null in the untraced pass.
extern Tracer* g_tracer;

class ScopedSpan {
 public:
  ScopedSpan(const char* layer, const char* name)
      : id_(g_tracer ? g_tracer->Open(layer, name) : -1) {}
  ~ScopedSpan() {
    if (id_ >= 0) g_tracer->Close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int id_;
};

}  // namespace perfbench
