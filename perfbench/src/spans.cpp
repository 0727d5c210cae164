#include "spans.h"

#include <cstdio>

namespace perfbench {

Tracer* g_tracer = nullptr;

std::vector<double> Tracer::SelfSeconds() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[i] = static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
  for (const SpanRecord& s : spans_)
    if (s.parent >= 0)
      self[static_cast<std::size_t>(s.parent)] -=
          static_cast<double>(s.end_ns - s.start_ns);
  for (double& v : self) v = (v < 0 ? 0 : v) * 1e-9;
  return self;
}

SpanSummary Tracer::Summarize() const {
  const std::vector<double> self = SelfSeconds();
  SpanSummary out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    if (s.parent < 0) {
      out.wall_s += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
      out.unattributed_s += self[i];
      continue;
    }
    LayerTotals& t = out.layers[s.layer];
    t.self_s += self[i];
    ++t.calls;
  }
  return out;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const std::vector<double> self = SelfSeconds();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::fprintf(f,
                 "{\"run\":%d,\"id\":%zu,\"parent\":%d,\"layer\":\"%s\","
                 "\"name\":\"%s\",\"start_ns\":%llu,\"end_ns\":%llu,"
                 "\"self_ns\":%.0f}\n",
                 s.run, i, s.parent, s.layer, s.name,
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns), self[i] * 1e9);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
