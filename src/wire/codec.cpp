#include "wire/codec.h"

namespace webwave {

namespace {

// Each payload is described exactly once, by a Fields() overload that
// lists its fields in wire order.  Two Io types walk those lists:
// Writer sizes and encodes, Reader decodes with bounds, range, cap and
// ordering checks.  A description names its payload as Ref<Io, T> —
// const T& for Writer, T& for Reader — so one list serves both.
// Dispatch is by template instantiation: no per-field indirection on the
// data-plane path.
template <class Io, class T>
using Ref = typename Io::template Ref<T>;

// The ordering rule of an array with none.
struct Unordered {};

// Encodes at base; Writer<false> only counts the bytes — the sizing pass
// that runs before the frame is reserved.
template <bool kWrite>
class Writer {
 public:
  template <class T>
  using Ref = const T&;

  explicit Writer(std::uint8_t* base = nullptr) : base_(base) {}

  std::size_t size() const { return at_; }

  template <class T>
  void Field(const T& v) {
    if constexpr (std::is_class_v<T>) {
      Fields(*this, v);
    } else {
      if constexpr (kWrite) PutLE(base_ + at_, v);
      at_ += sizeof(T);
    }
  }
  template <class T>
  void Range(const T& v, T, T) {
    Field(v);
  }
  void Reserved(std::size_t n) {
    if constexpr (kWrite) std::memset(base_ + at_, 0, n);
    at_ += n;
  }
  template <class T>
  std::uint32_t Count(const std::vector<T>& v) {
    const auto n = static_cast<std::uint32_t>(v.size());
    Field(n);
    return n;
  }
  template <class T, class Key = Unordered>
  void Array(const std::vector<T>& v, std::uint32_t, std::size_t, Key = {}) {
    for (const T& e : v) Field(e);
  }
  template <class T>
  void Optional(bool present, const T& section) {
    if (present) Field(section);
  }

 private:
  std::uint8_t* base_;
  std::size_t at_ = 0;
};
using Sizer = Writer<false>;

// The encoded size of a default element: an array element's minimum
// width, since its nested arrays are then empty.
template <class T>
std::size_t MinWireSize() {
  Sizer sizer;
  sizer.Field(T{});
  return sizer.size();
}

// Decodes one payload.  Any short read, out-of-range field, non-zero
// reserved byte, oversized count or ordering violation fails the reader;
// Done() also demands that no payload byte is left over.
class Reader {
 public:
  template <class T>
  using Ref = T&;

  Reader(const std::uint8_t* p, std::size_t n) : p_(p), end_(p + n) {}

  bool Done() const { return ok_ && p_ == end_; }

  template <class T>
  void Field(T& v) {
    if constexpr (std::is_class_v<T>) {
      Fields(*this, v);
    } else if (Take(sizeof(T))) {
      v = GetLE<T>(p_ - sizeof(T));
    }
  }
  template <class T>
  void Range(T& v, T lo, T hi) {
    Field(v);
    if (v < lo || v > hi) Fail();
  }
  void Reserved(std::size_t n) {
    if (!Take(n)) return;
    for (const std::uint8_t* b = p_ - n; b != p_; ++b)
      if (*b != 0) Fail();
  }
  template <class T>
  std::uint32_t Count(std::vector<T>&) {
    std::uint32_t n = 0;
    Field(n);
    return n;
  }
  // The cap and the fits-in-what-remains test both run before the
  // reserve, so a hostile count cannot allocate beyond the payload.
  // Keyed arrays must be non-negative and strictly ascending by key.
  template <class T, class Key = Unordered>
  void Array(std::vector<T>& v, std::uint32_t n, std::size_t cap,
             Key key = {}) {
    v.clear();
    if (n > cap || n > Remaining() / MinWireSize<T>()) return Fail();
    v.reserve(n);
    std::int64_t prev = -1;
    for (std::uint32_t i = 0; i < n && ok_; ++i) {
      Field(v.emplace_back());
      if constexpr (!std::is_same_v<Key, Unordered>) {
        const std::int64_t k = key(v.back());
        if (k <= prev) Fail();
        prev = k;
      }
    }
  }
  // A trailing section: present iff payload bytes remain.
  template <class T>
  void Optional(bool& present, T& section) {
    present = p_ != end_;
    if (present) Field(section);
  }

 private:
  std::size_t Remaining() const {
    return static_cast<std::size_t>(end_ - p_);
  }
  bool Take(std::size_t n) {
    if (Remaining() < n) {
      Fail();
      return false;
    }
    p_ += n;
    return true;
  }
  void Fail() {
    ok_ = false;
    p_ = end_;
  }

  const std::uint8_t* p_;
  const std::uint8_t* end_;
  bool ok_ = true;
};

// The payload descriptions, one per message and record type.

template <class Io>
void Fields(Io& io, Ref<Io, GetRequest> m) {
  io.Field(m.req_id);
  io.Field(m.doc);
  io.Field(m.origin_node);
  io.Field(m.ttl_hops);
  io.Field(m.failed);
  io.Field(m.flags);
  io.Field(m.trace_seq);
}

template <class Io>
void Fields(Io& io, Ref<Io, GetReply> m) {
  io.Field(m.req_id);
  io.Field(m.doc);
  io.Field(m.serving_node);
  io.Field(m.load);
  io.Field(m.version);
  io.Field(m.hops);
  io.Range(m.result, GetResult::kServed, GetResult::kDropped);
  io.Reserved(1);
}

template <class Io>
void Fields(Io& io, Ref<Io, LoadGossip> m) {
  io.Field(m.node);
  io.Field(m.epoch);
  io.Field(m.load);
}

template <class Io>
void Fields(Io& io, Ref<Io, Hello> m) {
  io.Range(m.kind, PeerKind::kServer, PeerKind::kLoadgen);
  io.Reserved(3);
  io.Field(m.sender);
  io.Field(m.epoch);
}

template <class Io>
void Fields(Io& io, Ref<Io, WireCounters> m) {
  io.Field(m.requests);
  io.Field(m.cache_served);
  io.Field(m.home_served);
  io.Field(m.hop_sum);
  io.Field(m.failed_attempts);
  io.Field(m.failovers);
  io.Field(m.dropped_requests);
  io.Field(m.backoff_slots);
  io.Field(m.net_forwards);
  io.Field(m.gossip_sent);
  io.Field(m.shed_forwards);
  io.Field(m.reconnects);
  io.Field(m.outbox_peak_bytes);
}

// A zero count is a non-canonical encoding; indices stay inside the
// fixed bucket layout.
template <class Io>
void Fields(Io& io, Ref<Io, LatencyHistogram::SparseEntry> m) {
  io.Range(m.index, std::uint32_t{0},
           static_cast<std::uint32_t>(LatencyHistogram::kBucketCount - 1));
  io.Range(m.count, std::uint64_t{1}, ~std::uint64_t{0});
}

template <class Io>
void Fields(Io& io, Ref<Io, WireHistogram> m) {
  const std::uint32_t n = io.Count(m.buckets);
  io.Field(m.sum);
  io.Array(m.buckets, n, MessageCodec::kMaxHistEntries,
           [](const LatencyHistogram::SparseEntry& e) { return e.index; });
}

template <class Io>
void Fields(Io& io, Ref<Io, StatsReply> m) {
  io.Field(m.counters);
  io.Optional(m.hist.present, m.hist);
}

template <class Io>
void Fields(Io& io, Ref<Io, TraceEvent> m) {
  io.Field(m.req_id);
  io.Field(m.detail);
  io.Field(m.node);
  io.Field(m.seq);
  io.Range(m.kind, TraceEventKind::kArrival, TraceEventKind::kDropped);
  io.Field(m.aux);
}

template <class Io>
void Fields(Io& io, Ref<Io, std::vector<TraceEvent>> m) {
  const std::uint32_t n = io.Count(m);
  io.Array(m, n, MessageCodec::kMaxTraceRecords);
}

template <class Io>
void Fields(Io& io, Ref<Io, FlightEvent> m) {
  io.Field(m.t_ns);
  io.Field(m.detail);
  io.Field(m.arg);
  io.Field(m.seq);
  io.Range(m.kind, static_cast<std::uint8_t>(FlightEventKind::kFrameIn),
           static_cast<std::uint8_t>(FlightEventKind::kShutdown));
  io.Field(m.node);
}

template <class Io>
void Fields(Io& io, Ref<Io, FlightReply> m) {
  const std::uint32_t n = io.Count(m.events);
  io.Array(m.events, n, MessageCodec::kMaxFlightRecords);
}

template <class Io>
void Fields(Io& io, Ref<Io, QuotaDeltaCell> m) {
  io.Field(m.doc);
  io.Field(m.rate);
  io.Field(m.frac);
}

// Documents ascend within a row: CellOf's binary search depends on it
// after splicing.
template <class Io>
void Fields(Io& io, Ref<Io, QuotaDeltaRow> m) {
  io.Field(m.node);
  const std::uint32_t n = io.Count(m.cells);
  io.Array(m.cells, n, MessageCodec::kMaxDeltaCellsPerRow,
           [](const QuotaDeltaCell& c) { return c.doc; });
}

template <class Io>
void Fields(Io& io, Ref<Io, QuotaDelta> m) {
  io.Field(m.epoch);
  const std::uint32_t n = io.Count(m.rows);
  io.Field(m.total_rate);
  io.Array(m.rows, n, MessageCodec::kMaxDeltaRows,
           [](const QuotaDeltaRow& r) { return r.node; });
}

template <class Io>
void Fields(Io& io, Ref<Io, OwnerDelta> m) {
  io.Field(m.node);
  io.Field(m.owner);
}

template <class Io>
void Fields(Io& io, Ref<Io, EpochUpdate> m) {
  io.Field(m.epoch);
  const std::uint32_t down = io.Count(m.down);
  const std::uint32_t reassign = io.Count(m.reassign);
  io.Reserved(4);
  io.Array(m.down, down, MessageCodec::kMaxEpochUpdateNodes,
           [](NodeId v) { return v; });
  io.Array(m.reassign, reassign, MessageCodec::kMaxEpochUpdateNodes,
           [](const OwnerDelta& d) { return d.node; });
}

// Reserves a frame in *out and writes its header; returns the payload
// offset.
inline std::size_t BeginFrame(MsgType type, std::size_t payload,
                              std::vector<std::uint8_t>* out) {
  const std::size_t base = out->size();
  out->resize(base + MessageCodec::kHeaderSize + payload);
  std::uint8_t* p = out->data() + base;
  PutLE(p, MessageCodec::kMagic);
  p[2] = MessageCodec::kVersion;
  p[3] = static_cast<std::uint8_t>(type);
  PutLE(p + 4, static_cast<std::uint32_t>(payload));
  return base + MessageCodec::kHeaderSize;
}

template <class M>
std::size_t EncodeFrame(MsgType type, const M& m,
                        std::vector<std::uint8_t>* out) {
  Sizer sizer;
  sizer.Field(m);
  const std::size_t at = BeginFrame(type, sizer.size(), out);
  Writer<true> w(out->data() + at);
  w.Field(m);
  return MessageCodec::kHeaderSize + sizer.size();
}

// Decodes a whole payload into out->*Member; true iff it met its
// description exactly.
template <auto Member>
bool DecodeInto(const std::uint8_t* p, std::size_t n, WireMessage* out) {
  Reader r(p, n);
  r.Field(out->*Member);
  return r.Done();
}

bool DecodeStats(const std::uint8_t* p, std::size_t n, WireMessage* out) {
  StatsReply s;
  Reader r(p, n);
  r.Field(s);
  out->stats = s.counters;
  out->stats_hist = std::move(s.hist);
  return r.Done();
}

// Anti-DoS ceiling on a kQuotaDelta payload a peer will buffer: enough
// for every row of the largest table the repo ships changing at once,
// far below anything that could exhaust a daemon.
constexpr std::size_t kMaxDeltaPayload = std::size_t{1} << 27;

// The stated-length band of each type: a plausible payload length is
// min + k*step <= max, checked the moment the header is complete.
struct FrameSpec {
  MsgType type;
  const char* name;
  std::size_t min, max, step;
  // Null for an empty payload.
  bool (*decode)(const std::uint8_t*, std::size_t, WireMessage*);

  bool Plausible(std::size_t stated) const {
    return stated >= min && stated <= max &&
           (step == 1 || (stated - min) % step == 0);
  }
};

// kStatsReply is the bare counters or the counters plus a 12 B section
// prologue and 12 B entries — together, 104 + 12k.
static_assert(MessageCodec::kHistPrologueSize == MessageCodec::kHistEntrySize);

constexpr FrameSpec kFrames[] = {
    {MsgType::kGetRequest, "get-request", MessageCodec::kGetRequestSize,
     MessageCodec::kGetRequestSize, 1, &DecodeInto<&WireMessage::get>},
    {MsgType::kGetReply, "get-reply", MessageCodec::kGetReplySize,
     MessageCodec::kGetReplySize, 1, &DecodeInto<&WireMessage::reply>},
    {MsgType::kLoadGossip, "load-gossip", MessageCodec::kLoadGossipSize,
     MessageCodec::kLoadGossipSize, 1, &DecodeInto<&WireMessage::gossip>},
    {MsgType::kHello, "hello", MessageCodec::kHelloSize,
     MessageCodec::kHelloSize, 1, &DecodeInto<&WireMessage::hello>},
    {MsgType::kStatsRequest, "stats-request", 0, 0, 1, nullptr},
    {MsgType::kStatsReply, "stats-reply", MessageCodec::kCountersSize,
     MessageCodec::kCountersSize + MessageCodec::kHistPrologueSize +
         MessageCodec::kMaxHistEntries * MessageCodec::kHistEntrySize,
     MessageCodec::kHistEntrySize, &DecodeStats},
    {MsgType::kShutdown, "shutdown", 0, 0, 1, nullptr},
    {MsgType::kTraceRequest, "trace-request", 0, 0, 1, nullptr},
    {MsgType::kTraceReply, "trace-reply", 4,
     4 + MessageCodec::kMaxTraceRecords * MessageCodec::kTraceEventSize,
     MessageCodec::kTraceEventSize, &DecodeInto<&WireMessage::trace>},
    {MsgType::kQuotaDelta, "quota-delta", MessageCodec::kDeltaPrologueSize,
     kMaxDeltaPayload, 1, &DecodeInto<&WireMessage::delta>},
    {MsgType::kEpochUpdate, "epoch-update",
     MessageCodec::kEpochUpdatePrologueSize,
     MessageCodec::kEpochUpdatePrologueSize +
         MessageCodec::kMaxEpochUpdateNodes * (4 + 8),
     1, &DecodeInto<&WireMessage::epoch_update>},
    {MsgType::kFlightRequest, "flight-request", 0, 0, 1, nullptr},
    {MsgType::kFlightReply, "flight-reply", 4,
     4 + MessageCodec::kMaxFlightRecords * MessageCodec::kFlightEventSize,
     MessageCodec::kFlightEventSize, &DecodeInto<&WireMessage::flight>},
};

const FrameSpec* SpecOf(std::uint8_t type) {
  for (const FrameSpec& f : kFrames)
    if (static_cast<std::uint8_t>(f.type) == type) return &f;
  return nullptr;
}

}  // namespace

std::size_t MessageCodec::Encode(const GetRequest& m,
                                 std::vector<std::uint8_t>* out) {
  return EncodeFrame(MsgType::kGetRequest, m, out);
}

std::size_t MessageCodec::Encode(const GetReply& m,
                                 std::vector<std::uint8_t>* out) {
  return EncodeFrame(MsgType::kGetReply, m, out);
}

std::size_t MessageCodec::Encode(const LoadGossip& m,
                                 std::vector<std::uint8_t>* out) {
  return EncodeFrame(MsgType::kLoadGossip, m, out);
}

std::size_t MessageCodec::Encode(const Hello& m,
                                 std::vector<std::uint8_t>* out) {
  return EncodeFrame(MsgType::kHello, m, out);
}

std::size_t MessageCodec::Encode(const StatsReply& m,
                                 std::vector<std::uint8_t>* out) {
  return EncodeFrame(MsgType::kStatsReply, m, out);
}

std::size_t MessageCodec::Encode(const FlightReply& m,
                                 std::vector<std::uint8_t>* out) {
  return EncodeFrame(MsgType::kFlightReply, m, out);
}

std::size_t MessageCodec::Encode(const std::vector<TraceEvent>& m,
                                 std::vector<std::uint8_t>* out) {
  return EncodeFrame(MsgType::kTraceReply, m, out);
}

std::size_t MessageCodec::Encode(const QuotaDelta& m,
                                 std::vector<std::uint8_t>* out) {
  return EncodeFrame(MsgType::kQuotaDelta, m, out);
}

std::size_t MessageCodec::Encode(const EpochUpdate& m,
                                 std::vector<std::uint8_t>* out) {
  return EncodeFrame(MsgType::kEpochUpdate, m, out);
}

std::size_t MessageCodec::EncodeControl(MsgType type,
                                        std::vector<std::uint8_t>* out) {
  BeginFrame(type, 0, out);
  return kHeaderSize;
}

MessageCodec::DecodeStatus MessageCodec::Decode(const std::uint8_t* data,
                                                std::size_t len,
                                                WireMessage* out,
                                                std::size_t* consumed) {
  *consumed = 0;
  // Header bytes are validated as they become available, so garbage is
  // reported as soon as it is distinguishable from a short read.
  if (len >= 1 && data[0] != static_cast<std::uint8_t>(kMagic & 0xff))
    return DecodeStatus::kError;
  if (len >= 2 && data[1] != static_cast<std::uint8_t>(kMagic >> 8))
    return DecodeStatus::kError;
  if (len >= 3 && data[2] != kVersion) return DecodeStatus::kError;
  const FrameSpec* spec = len >= 4 ? SpecOf(data[3]) : nullptr;
  if (len >= 4 && spec == nullptr) return DecodeStatus::kError;
  if (len < kHeaderSize) return DecodeStatus::kNeedMore;
  const std::uint32_t stated = GetLE<std::uint32_t>(data + 4);
  if (!spec->Plausible(stated)) return DecodeStatus::kError;
  if (len < kHeaderSize + stated) return DecodeStatus::kNeedMore;

  out->type = spec->type;
  if (spec->decode != nullptr &&
      !spec->decode(data + kHeaderSize, stated, out))
    return DecodeStatus::kError;
  *consumed = kHeaderSize + stated;
  return DecodeStatus::kOk;
}

const char* MsgTypeName(MsgType type) {
  const FrameSpec* spec = SpecOf(static_cast<std::uint8_t>(type));
  return spec != nullptr ? spec->name : "?";
}

}  // namespace webwave
