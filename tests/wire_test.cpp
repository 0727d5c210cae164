// Property tests for the wire layer, table-driven: one counter-seeded
// corpus holding every frame type round-trips byte-exactly and is pinned
// by a golden hash; every strict prefix of every frame is kNeedMore (never
// kOk, never a bogus decode); an explicit table of corrupted frames —
// written here from the byte layout, not derived from the codec — is
// rejected; a deterministic mutation fuzzer checks the decoder's laws on
// inputs nobody scripted; and QuotaWireTable round-trips byte-exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "doc/catalog.h"
#include "doc/placement.h"
#include "quota/quota_snapshot.h"
#include "tree/builders.h"
#include "util/rng.h"
#include "wire/codec.h"
#include "wire/quota_wire.h"

namespace webwave {
namespace {

using DecodeStatus = MessageCodec::DecodeStatus;
using Bytes = std::vector<std::uint8_t>;
constexpr std::size_t kH = MessageCodec::kHeaderSize;

// Counter-seeded field draws: message i's fields are pure functions of
// (seed, i), matching the repo-wide determinism discipline.
std::uint64_t Draw(std::uint64_t seed, std::uint64_t i, std::uint64_t lane) {
  std::uint64_t state = seed + i * 0x9e3779b97f4a7c15ULL + lane;
  return SplitMix64(state);
}

double DrawLoad(std::uint64_t seed, std::uint64_t i, std::uint64_t lane) {
  return CounterUnitDouble(Draw(seed, i, lane)) * 1e6;
}

GetRequest RandomGetRequest(std::uint64_t seed, std::uint64_t i) {
  GetRequest m;
  m.req_id = Draw(seed, i, 1);
  m.doc = static_cast<std::int32_t>(Draw(seed, i, 2) & 0x7fffffff);
  m.origin_node = static_cast<NodeId>(Draw(seed, i, 3) & 0x7fffffff);
  m.ttl_hops = static_cast<std::uint16_t>(Draw(seed, i, 4));
  m.failed = static_cast<std::uint16_t>(Draw(seed, i, 5));
  m.flags = static_cast<std::uint16_t>(Draw(seed, i, 6));
  m.trace_seq = static_cast<std::uint16_t>(Draw(seed, i, 7));
  return m;
}

TraceEvent RandomTraceEvent(std::uint64_t seed, std::uint64_t i) {
  TraceEvent e;
  e.req_id = Draw(seed, i, 1);
  e.detail = Draw(seed, i, 2);
  e.node = static_cast<NodeId>(Draw(seed, i, 3) & 0x7fffffff);
  e.seq = static_cast<std::uint16_t>(Draw(seed, i, 4));
  e.kind = static_cast<TraceEventKind>(1 + (Draw(seed, i, 5) % 7));
  e.aux = static_cast<std::uint8_t>(Draw(seed, i, 6));
  return e;
}

GetReply RandomGetReply(std::uint64_t seed, std::uint64_t i) {
  GetReply m;
  m.req_id = Draw(seed, i, 1);
  m.doc = static_cast<std::int32_t>(Draw(seed, i, 2) & 0x7fffffff);
  m.serving_node = static_cast<NodeId>(Draw(seed, i, 3) & 0x7fffffff);
  m.result = (Draw(seed, i, 4) & 1) ? GetResult::kDropped : GetResult::kServed;
  m.hops = static_cast<std::uint16_t>(Draw(seed, i, 5));
  m.load = DrawLoad(seed, i, 6);
  m.version = static_cast<std::uint32_t>(Draw(seed, i, 7));
  return m;
}

LoadGossip RandomLoadGossip(std::uint64_t seed, std::uint64_t i) {
  LoadGossip m;
  m.node = static_cast<NodeId>(Draw(seed, i, 1) & 0x7fffffff);
  m.epoch = static_cast<std::uint32_t>(Draw(seed, i, 2));
  m.load = DrawLoad(seed, i, 3);
  return m;
}

WireCounters RandomCounters(std::uint64_t seed, std::uint64_t i) {
  WireCounters c;
  c.requests = Draw(seed, i, 1);
  c.cache_served = Draw(seed, i, 2);
  c.home_served = Draw(seed, i, 3);
  c.hop_sum = Draw(seed, i, 4);
  c.failed_attempts = Draw(seed, i, 5);
  c.failovers = Draw(seed, i, 6);
  c.dropped_requests = Draw(seed, i, 7);
  c.backoff_slots = Draw(seed, i, 8);
  c.net_forwards = Draw(seed, i, 9);
  c.gossip_sent = Draw(seed, i, 10);
  c.shed_forwards = Draw(seed, i, 11);
  c.reconnects = Draw(seed, i, 12);
  c.outbox_peak_bytes = Draw(seed, i, 13);
  return c;
}

// Rows ascend by node and documents ascend within a row, as the decoder
// demands; row 0 (when present) gets an empty cell list so the empty-row
// encoding is always exercised.
QuotaDelta RandomQuotaDelta(std::uint64_t seed, std::uint64_t i,
                            std::size_t row_count) {
  QuotaDelta d;
  d.epoch = static_cast<std::uint32_t>(Draw(seed, i, 1));
  d.total_rate = DrawLoad(seed, i, 2);
  NodeId node = -1;
  for (std::size_t r = 0; r < row_count; ++r) {
    QuotaDeltaRow row;
    node += 1 + static_cast<NodeId>(Draw(seed, i, 10 + r) % 5);
    row.node = node;
    const std::size_t cells = r == 0 ? 0 : 1 + Draw(seed, i, 50 + r) % 3;
    std::int32_t doc = -1;
    for (std::size_t c = 0; c < cells; ++c) {
      QuotaDeltaCell cell;
      doc += 1 + static_cast<std::int32_t>(Draw(seed, i, 100 + 8 * r + c) % 7);
      cell.doc = doc;
      cell.rate = DrawLoad(seed, i, 200 + 8 * r + c);
      cell.frac = CounterUnitDouble(Draw(seed, i, 300 + 8 * r + c));
      row.cells.push_back(cell);
    }
    d.rows.push_back(std::move(row));
  }
  return d;
}

EpochUpdate RandomEpochUpdate(std::uint64_t seed, std::uint64_t i,
                              std::size_t down_count,
                              std::size_t reassign_count) {
  EpochUpdate u;
  u.epoch = static_cast<std::uint32_t>(Draw(seed, i, 1));
  NodeId v = -1;
  for (std::size_t k = 0; k < down_count; ++k) {
    v += 1 + static_cast<NodeId>(Draw(seed, i, 10 + k) % 9);
    u.down.push_back(v);
  }
  v = -1;
  for (std::size_t k = 0; k < reassign_count; ++k) {
    OwnerDelta d;
    v += 1 + static_cast<NodeId>(Draw(seed, i, 60 + k) % 9);
    d.node = v;
    d.owner = static_cast<std::uint32_t>(Draw(seed, i, 110 + k) % 64);
    u.reassign.push_back(d);
  }
  return u;
}

// Counter-seeded latency histogram: n recorded values spanning the
// linear buckets through the high octaves.
LatencyHistogram RandomHistogram(std::uint64_t seed, std::size_t n) {
  LatencyHistogram h;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t shift = Draw(seed, i, 1) % 48;
    h.Record(Draw(seed, i, 2) >> shift);
  }
  return h;
}

FlightEvent RandomFlightEvent(std::uint64_t seed, std::uint64_t i) {
  FlightEvent e;
  e.t_ns = Draw(seed, i, 1);
  e.detail = Draw(seed, i, 2);
  e.arg = static_cast<std::uint32_t>(Draw(seed, i, 3));
  e.seq = static_cast<std::uint16_t>(Draw(seed, i, 4));
  e.kind = static_cast<std::uint8_t>(1 + Draw(seed, i, 5) % 8);
  e.node = static_cast<std::uint8_t>(Draw(seed, i, 6));
  return e;
}

// Encodes one frame, checking that Encode reports the bytes it appended.
template <class M>
Bytes Encoded(const M& m) {
  Bytes b;
  const std::size_t n = MessageCodec::Encode(m, &b);
  EXPECT_EQ(n, b.size());
  return b;
}

Bytes EncodedControl(MsgType t) {
  Bytes b;
  const std::size_t n = MessageCodec::EncodeControl(t, &b);
  EXPECT_EQ(n, b.size());
  return b;
}

// A bare header claiming `stated` payload bytes for `type` — for probing
// the stated-length plausibility checks with no payload attached.
Bytes RawHeader(MsgType type, std::uint32_t stated) {
  Bytes h(kH);
  PutLE<std::uint16_t>(h.data(), MessageCodec::kMagic);
  h[2] = MessageCodec::kVersion;
  h[3] = static_cast<std::uint8_t>(type);
  PutLE<std::uint32_t>(h.data() + 4, stated);
  return h;
}

// Re-encodes a decoded frame from the message it decoded to.
Bytes Reencode(const WireMessage& w) {
  switch (w.type) {
    case MsgType::kGetRequest: return Encoded(w.get);
    case MsgType::kGetReply: return Encoded(w.reply);
    case MsgType::kLoadGossip: return Encoded(w.gossip);
    case MsgType::kHello: return Encoded(w.hello);
    case MsgType::kStatsReply:
      return Encoded(StatsReply{w.stats, w.stats_hist});
    case MsgType::kTraceReply: return Encoded(w.trace);
    case MsgType::kQuotaDelta: return Encoded(w.delta);
    case MsgType::kEpochUpdate: return Encoded(w.epoch_update);
    case MsgType::kFlightReply: return Encoded(w.flight);
    default: return EncodedControl(w.type);
  }
}

// One Decode call on a fresh message; consumed starts non-zero so a
// failed decode is seen to reset it.
struct Decoded {
  DecodeStatus status = DecodeStatus::kError;
  std::size_t consumed = 1;
  WireMessage msg;
};

Decoded DecodeBytes(const std::uint8_t* p, std::size_t n) {
  Decoded d;
  d.status = MessageCodec::Decode(p, n, &d.msg, &d.consumed);
  return d;
}
Decoded DecodeBytes(const Bytes& b) { return DecodeBytes(b.data(), b.size()); }

constexpr MsgType kAllTypes[] = {
    MsgType::kGetRequest,   MsgType::kGetReply,     MsgType::kLoadGossip,
    MsgType::kHello,        MsgType::kStatsRequest, MsgType::kStatsReply,
    MsgType::kShutdown,     MsgType::kTraceRequest, MsgType::kTraceReply,
    MsgType::kQuotaDelta,   MsgType::kEpochUpdate,  MsgType::kFlightRequest,
    MsgType::kFlightReply};

// ---------------------------------------------------------------------------
// The corpus: counter-seeded messages of every type, each with its frame
// size worked out here from the byte layout and a check that a decode
// reproduced the message it was encoded from.

struct Sample {
  MsgType type;
  Bytes bytes;
  std::size_t size;
  std::function<bool(const WireMessage&)> same;
};

template <class M, class Field>
void Add(std::vector<Sample>* c, MsgType t, const M& m, Field WireMessage::*f,
         std::size_t payload) {
  c->push_back({t, Encoded(m), kH + payload, [m, f](const WireMessage& w) {
                  return w.*f == m;
                }});
}

std::size_t DeltaPayload(const QuotaDelta& d) {
  std::size_t n = 16;
  for (const QuotaDeltaRow& r : d.rows) n += 8 + 20 * r.cells.size();
  return n;
}

std::vector<Sample> Corpus() {
  std::vector<Sample> c;
  for (std::uint64_t i = 0; i < 500; ++i)
    Add(&c, MsgType::kGetRequest, RandomGetRequest(11, i), &WireMessage::get,
        24);
  for (std::uint64_t i = 0; i < 500; ++i)
    Add(&c, MsgType::kGetReply, RandomGetReply(12, i), &WireMessage::reply,
        32);
  for (std::uint64_t i = 0; i < 500; ++i)
    Add(&c, MsgType::kLoadGossip, RandomLoadGossip(13, i),
        &WireMessage::gossip, 16);
  // The v3 rejoin handshake: a stale daemon's epoch disclosure survives.
  for (const std::uint32_t epoch : {0u, 1u, 0xdeadbeefu})
    Add(&c, MsgType::kHello,
        Hello{epoch == 1 ? PeerKind::kLoadgen : PeerKind::kServer, 3, epoch},
        &WireMessage::hello, 12);
  for (const MsgType t : {MsgType::kStatsRequest, MsgType::kShutdown,
                          MsgType::kTraceRequest, MsgType::kFlightRequest})
    c.push_back({t, EncodedControl(t), kH,
                 [](const WireMessage&) { return true; }});
  // Daemons always ship a histogram (WireHistogram::From), so the golden
  // corpus holds only present sections; the decoded section must rebuild
  // the recorded histogram bucket for bucket.
  for (const std::size_t n : {0, 1, 37, 800}) {
    const LatencyHistogram h = RandomHistogram(51, n);
    const StatsReply s{RandomCounters(52, n), WireHistogram::From(h)};
    c.push_back({MsgType::kStatsReply, Encoded(s),
                 kH + 104 + 12 + 12 * s.hist.buckets.size(),
                 [s, h](const WireMessage& w) {
                   return w.stats == s.counters && w.stats_hist == s.hist &&
                          w.stats_hist.ToHistogram() == h;
                 }});
  }
  for (const std::size_t n : {0, 1, 17, 300}) {
    std::vector<TraceEvent> t;
    FlightReply f;
    for (std::size_t i = 0; i < n; ++i) {
      t.push_back(RandomTraceEvent(44, i));
      f.events.push_back(RandomFlightEvent(55, i));
    }
    Add(&c, MsgType::kTraceReply, t, &WireMessage::trace, 4 + 24 * n);
    Add(&c, MsgType::kFlightReply, f, &WireMessage::flight, 4 + 24 * n);
  }
  for (const std::size_t rows : {0, 1, 6, 40}) {
    const QuotaDelta d = RandomQuotaDelta(46, rows, rows);
    Add(&c, MsgType::kQuotaDelta, d, &WireMessage::delta, DeltaPayload(d));
  }
  for (const auto& [down, reassign] :
       {std::pair{0, 0}, {1, 0}, {0, 1}, {5, 9}})
    Add(&c, MsgType::kEpochUpdate,
        RandomEpochUpdate(47, down * 16 + reassign, down, reassign),
        &WireMessage::epoch_update, 16 + 4 * down + 8 * reassign);
  return c;
}

// The golden corpus plus counters-only StatsReplies: the bare 104 B form
// a histogram-less peer sends.  It is kept out of the golden hash because
// the older encoder gave such a reply an empty section.
std::vector<Sample> Samples() {
  std::vector<Sample> c = Corpus();
  for (const std::uint64_t i : {0, 1}) {
    const StatsReply s{RandomCounters(58, i), {}};
    c.push_back({MsgType::kStatsReply, Encoded(s), kH + 104,
                 [s](const WireMessage& w) {
                   return w.stats == s.counters && !w.stats_hist.present &&
                          w.stats_hist.buckets.empty();
                 }});
  }
  return c;
}

// Every sample frame of type t has its layout's size, decodes whole to
// its message and re-encodes to the identical bytes.
void CheckRoundTrips(MsgType t) {
  int seen = 0;
  for (const Sample& s : Samples()) {
    if (s.type != t) continue;
    ++seen;
    EXPECT_EQ(s.bytes.size(), s.size) << MsgTypeName(t) << " #" << seen;
    const Decoded d = DecodeBytes(s.bytes);
    ASSERT_EQ(d.status, DecodeStatus::kOk) << MsgTypeName(t) << " #" << seen;
    EXPECT_EQ(d.consumed, s.bytes.size());
    EXPECT_EQ(d.msg.type, t);
    EXPECT_TRUE(s.same(d.msg)) << MsgTypeName(t) << " #" << seen;
    EXPECT_EQ(Reencode(d.msg), s.bytes) << MsgTypeName(t) << " #" << seen;
  }
  EXPECT_GT(seen, 0) << MsgTypeName(t);
}

// Every strict prefix of every sample frame of type t is kNeedMore with
// nothing consumed.
void CheckPrefixes(MsgType t) {
  for (const Sample& s : Samples()) {
    if (s.type != t) continue;
    for (std::size_t cut = 0; cut < s.bytes.size(); ++cut) {
      const Decoded d = DecodeBytes(s.bytes.data(), cut);
      ASSERT_EQ(d.status, DecodeStatus::kNeedMore)
          << MsgTypeName(t) << " of " << s.bytes.size() << " cut at " << cut;
      EXPECT_EQ(d.consumed, 0u);
    }
  }
}

// ---------------------------------------------------------------------------
// The corruption table: one explicit row per hardening case, each a whole
// frame (or bare header) and the status Decode must return for it.  Field
// offsets are written here from the byte layout.

struct Corruption {
  MsgType type;
  const char* what;
  Bytes frame;
  DecodeStatus want;
};

Bytes Set8(Bytes b, std::size_t at, std::uint8_t v) {
  b[at] = v;
  return b;
}
Bytes Flip(Bytes b, std::size_t at) { return Set8(b, at, b[at] ^ 1); }
Bytes Set32(Bytes b, std::size_t at, std::uint32_t v) {
  PutLE<std::uint32_t>(b.data() + at, v);
  return b;
}
Bytes Copy4(Bytes b, std::size_t from, std::size_t to) {
  std::memcpy(b.data() + to, b.data() + from, 4);
  return b;
}

std::vector<Corruption> Corruptions() {
  std::vector<Corruption> rows;
  constexpr DecodeStatus kNeedMore = DecodeStatus::kNeedMore;
  auto row = [&](MsgType t, const char* what, Bytes f,
                 DecodeStatus want = DecodeStatus::kError) {
    rows.push_back({t, what, std::move(f), want});
  };
  auto stated = [&](MsgType t, const char* what,
                    std::initializer_list<std::uint32_t> lengths,
                    DecodeStatus want = DecodeStatus::kError) {
    for (const std::uint32_t n : lengths) row(t, what, RawHeader(t, n), want);
  };

  // Fixed-width frames must state exactly their width.
  for (const auto& [t, w] : {std::pair{MsgType::kGetRequest, 24u},
                             {MsgType::kGetReply, 32u},
                             {MsgType::kLoadGossip, 16u},
                             {MsgType::kHello, 12u}}) {
    stated(t, "stated width +- 1", {w - 1, w + 1});
    stated(t, "stated width", {w}, kNeedMore);
  }
  for (const MsgType t : {MsgType::kStatsRequest, MsgType::kShutdown,
                          MsgType::kTraceRequest, MsgType::kFlightRequest}) {
    stated(t, "stated non-empty", {1});
    stated(t, "stated empty", {0}, DecodeStatus::kOk);
  }
  // kGetReply: result byte at 30, reserved byte at 31.
  const Bytes reply = Encoded(RandomGetReply(31, 1));
  row(MsgType::kGetReply, "result 2", Set8(reply, kH + 30, 2));
  row(MsgType::kGetReply, "result 9", Set8(reply, kH + 30, 9));
  row(MsgType::kGetReply, "reserved byte set", Set8(reply, kH + 31, 1));
  // kHello: kind byte at 0, reserved bytes 1..3.
  const Bytes hello = Encoded(Hello{PeerKind::kServer, 2, 5});
  row(MsgType::kHello, "kind 2", Set8(hello, kH, 2));
  row(MsgType::kHello, "reserved byte set", Set8(hello, kH + 3, 0x80));

  // kTraceReply / kFlightReply: u32 count, then 24 B records with the
  // kind byte at record offset 22; at most 2^20 records.
  std::vector<TraceEvent> events;
  FlightReply flight;
  for (std::size_t i = 0; i < 5; ++i) {
    events.push_back(RandomTraceEvent(45, i));
    flight.events.push_back(RandomFlightEvent(56, i));
  }
  for (const auto& [t, f, over] :
       {std::tuple{MsgType::kTraceReply, Encoded(events), 8},
        {MsgType::kFlightReply, Encoded(flight), 9}}) {
    row(t, "count disagrees with stated length", Flip(f, kH));
    row(t, "kind 0", Set8(f, kH + 4 + 22, 0));
    row(t, "kind past the last", Set8(f, kH + 4 + 22, over));
    stated(t, "stated below the count word or not whole records",
           {3, 4 + 24 + 5});
    stated(t, "stated at the record cap", {4 + (1u << 20) * 24}, kNeedMore);
    stated(t, "stated one record over the cap", {4 + ((1u << 20) + 1) * 24});
  }

  // kQuotaDelta: 16 B prologue (epoch, row count, total rate), then rows
  // of (node, cell count) and 20 B (doc, rate, frac) cells.  Row 0 of the
  // base has no cells, so row 1 starts 8 B after it.
  const MsgType kQD = MsgType::kQuotaDelta;
  const Bytes delta = Encoded(RandomQuotaDelta(48, 0, 6));
  const std::size_t row0 = kH + 16;
  row(kQD, "row count disagrees with stated length", Flip(delta, kH + 4));
  row(kQD, "row count 0xffffffff", Set32(delta, kH + 4, ~0u));
  row(kQD, "row count cap + 1", Set32(delta, kH + 4, (1u << 22) + 1));
  row(kQD, "duplicate row node", Copy4(delta, row0, row0 + 8));
  row(kQD, "negative row node", Set32(delta, row0, ~0u));
  row(kQD, "cell count overruns the payload", Set32(delta, row0 + 4, 1000));
  row(kQD, "cell count cap + 1", Set32(delta, row0 + 4, (1u << 20) + 1));
  const Bytes cells = Encoded(
      QuotaDelta{9, 1.5, {{4, {{2, 1.0, 0.5}, {5, 2.0, 0.25}}}}});
  row(kQD, "duplicate document", Set32(cells, kH + 24 + 20, 2));
  row(kQD, "negative document", Set32(cells, kH + 24, ~0u));
  Bytes trailing =
      Set32(cells, 4, static_cast<std::uint32_t>(cells.size() - kH + 1));
  trailing.push_back(0);
  row(kQD, "a byte past the last row", trailing);
  stated(kQD, "stated outside [prologue, 2^27]", {8, 15, (1u << 27) + 1});
  stated(kQD, "stated at a band edge", {16, 1u << 27}, kNeedMore);

  // kEpochUpdate: 16 B prologue (epoch, down count, reassign count,
  // reserved), then 4 B down nodes and 8 B (node, owner) pairs, each at
  // most 2^22.
  const MsgType kEU = MsgType::kEpochUpdate;
  const Bytes update = Encoded(RandomEpochUpdate(49, 0, 3, 3));
  const std::size_t down0 = kH + 16, pair0 = down0 + 3 * 4;
  const std::uint32_t update_max = 16 + (1u << 22) * 12;
  row(kEU, "down count disagrees with stated length", Flip(update, kH + 4));
  row(kEU, "down count 0xffffffff", Set32(update, kH + 4, ~0u));
  row(kEU, "reassign count disagrees with stated length",
      Flip(update, kH + 8));
  row(kEU, "reassign count cap + 1", Set32(update, kH + 8, (1u << 22) + 1));
  row(kEU, "reserved word set", Set8(update, kH + 12, 1));
  row(kEU, "duplicate down node", Copy4(update, down0, down0 + 4));
  row(kEU, "negative down node", Set32(update, down0, ~0u));
  row(kEU, "duplicate reassigned node", Copy4(update, pair0, pair0 + 8));
  row(kEU, "negative reassigned node", Set32(update, pair0, ~0u));
  stated(kEU, "stated outside [prologue, cap]", {8, 15, update_max + 1});
  stated(kEU, "stated at a band edge", {16, update_max}, kNeedMore);

  // kStatsReply: 104 B counters, then (u32 entry count, u64 sum) and at
  // most 2^12 12 B (u32 index, u64 count) entries.
  const MsgType kSR = MsgType::kStatsReply;
  const Bytes stats = Encoded(StatsReply{
      RandomCounters(54, 0), WireHistogram::From(RandomHistogram(54, 40))});
  const std::size_t sect = kH + 104, entry0 = sect + 12;
  const std::uint32_t stats_max = 104 + 12 + (1u << 12) * 12;
  row(kSR, "entry count disagrees with stated length", Flip(stats, sect));
  row(kSR, "duplicate bucket index", Copy4(stats, entry0, entry0 + 12));
  row(kSR, "bucket index past the layout",
      Set32(stats, entry0, LatencyHistogram::kBucketCount));
  row(kSR, "zero bucket count",
      Set32(Set32(stats, entry0 + 4, 0), entry0 + 8, 0));
  stated(kSR, "stated neither counters nor whole section",
         {103, 105, 115, 117, stats_max + 12});
  stated(kSR, "stated at a band edge", {104, 116, stats_max}, kNeedMore);
  return rows;
}

void CheckCorruptions(MsgType t) {
  int seen = 0;
  for (const Corruption& c : Corruptions()) {
    if (c.type != t) continue;
    ++seen;
    const Decoded d = DecodeBytes(c.frame);
    EXPECT_EQ(d.status, c.want) << MsgTypeName(t) << ": " << c.what;
    if (c.want != DecodeStatus::kOk) {
      EXPECT_EQ(d.consumed, 0u) << c.what;
    }
  }
  EXPECT_GT(seen, 0) << MsgTypeName(t);
}

void CheckHardening(MsgType t) {
  CheckPrefixes(t);
  CheckCorruptions(t);
}

// FNV-1a-64 over a byte string.
std::uint64_t Fnv1a64(const Bytes& b) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint8_t x : b) h = (h ^ x) * 0x100000001b3ULL;
  return h;
}

// ---------------------------------------------------------------------------

// The exact bytes of every frame type a daemon sends: a change of layout
// changes this hash, and must also bump kVersion.
TEST(WireCodec, GoldenBytesPinEveryFrameType) {
  Bytes all;
  for (const Sample& s : Corpus())
    all.insert(all.end(), s.bytes.begin(), s.bytes.end());
  EXPECT_EQ(MessageCodec::kVersion, 4);
  EXPECT_EQ(all.size(), 72896u);
  EXPECT_EQ(Fnv1a64(all), 0xb5596d04cb04dcedULL);
}

// Every frame type has corpus samples that round-trip and corruption
// rows that are rejected — a new frame type fails here until both tables
// cover it.
TEST(WireCodec, EveryFrameTypeRoundTripsAndRejectsItsCorruptions) {
  for (const MsgType t : kAllTypes) {
    EXPECT_STRNE(MsgTypeName(t), "?");
    CheckRoundTrips(t);
    CheckCorruptions(t);
  }
  EXPECT_STREQ(MsgTypeName(static_cast<MsgType>(0)), "?");
}

TEST(WireCodec, GetRequestRoundTripsOverRandomMessages) {
  CheckRoundTrips(MsgType::kGetRequest);
}

TEST(WireCodec, GetReplyRoundTripsOverRandomMessages) {
  CheckRoundTrips(MsgType::kGetReply);
}

TEST(WireCodec, LoadGossipRoundTripsOverRandomMessages) {
  CheckRoundTrips(MsgType::kLoadGossip);
}

TEST(WireCodec, HelloRejoinRoundTripsEpoch) {
  CheckRoundTrips(MsgType::kHello);
}

TEST(WireCodec, TraceReplyRoundTripsIncludingEmpty) {
  CheckRoundTrips(MsgType::kTraceReply);
}

TEST(WireCodec, QuotaDeltaRoundTripsIncludingEmpty) {
  CheckRoundTrips(MsgType::kQuotaDelta);
}

TEST(WireCodec, EpochUpdateRoundTripsIncludingEmpty) {
  CheckRoundTrips(MsgType::kEpochUpdate);
}

TEST(WireCodec, StatsReplyWithHistogramRoundTripsByteExactly) {
  CheckRoundTrips(MsgType::kStatsReply);
}

TEST(WireCodec, FlightReplyRoundTripsIncludingEmpty) {
  CheckRoundTrips(MsgType::kFlightReply);
}

TEST(WireCodec, TraceReplyPrefixesNeedMoreAndCorruptionErrors) {
  CheckHardening(MsgType::kTraceReply);
}

TEST(WireCodec, QuotaDeltaPrefixesNeedMoreAndCorruptionErrors) {
  CheckHardening(MsgType::kQuotaDelta);
}

TEST(WireCodec, EpochUpdatePrefixesNeedMoreAndCorruptionErrors) {
  CheckHardening(MsgType::kEpochUpdate);
}

TEST(WireCodec, StatsReplyHistogramPrefixesNeedMoreAndCorruptionErrors) {
  CheckHardening(MsgType::kStatsReply);
}

TEST(WireCodec, FlightReplyPrefixesNeedMoreAndCorruptionErrors) {
  CheckHardening(MsgType::kFlightReply);
}

// Every strict prefix of every frame type must be kNeedMore — never kOk,
// and in particular never a short frame accepted as complete.
TEST(WireCodec, EveryOneByteTruncationIsRejected) {
  for (const MsgType t : kAllTypes) CheckPrefixes(t);
}

// A stream of concatenated frames decodes frame by frame, and each
// Encode returns the bytes it appended, not the buffer's size.
TEST(WireCodec, HelloAndCountersAndControlRoundTrip) {
  Bytes buf;
  const Hello h{PeerKind::kLoadgen, 42, 0};
  EXPECT_EQ(MessageCodec::Encode(h, &buf), kH + 12);
  const WireCounters c = RandomCounters(14, 7);
  EXPECT_EQ(MessageCodec::Encode(StatsReply{c, {}}, &buf), kH + 104);
  EXPECT_EQ(MessageCodec::EncodeControl(MsgType::kStatsRequest, &buf), kH);
  EXPECT_EQ(MessageCodec::EncodeControl(MsgType::kShutdown, &buf), kH);
  ASSERT_EQ(buf.size(), 4 * kH + 12 + 104);

  std::size_t at = 0;
  WireMessage out;
  for (const MsgType want : {MsgType::kHello, MsgType::kStatsReply,
                             MsgType::kStatsRequest, MsgType::kShutdown}) {
    std::size_t consumed = 0;
    ASSERT_EQ(MessageCodec::Decode(buf.data() + at, buf.size() - at, &out,
                                   &consumed),
              DecodeStatus::kOk);
    EXPECT_EQ(out.type, want);
    if (want == MsgType::kHello) {
      EXPECT_EQ(out.hello, h);
    }
    if (want == MsgType::kStatsReply) {
      EXPECT_EQ(out.stats, c);
    }
    at += consumed;
  }
  EXPECT_EQ(at, buf.size());
}

// A counters-only reply (the pre-v4 bare form, what a histogram-less peer
// sends) is exactly 104 B and decodes with no section present, so
// decode∘encode is the identity on it: the section is emitted iff present.
TEST(WireCodec, BareCountersStatsReplyStillDecodes) {
  const WireCounters c = RandomCounters(53, 3);
  const Bytes buf = Encoded(StatsReply{c, {}});
  ASSERT_EQ(buf.size(), kH + MessageCodec::kCountersSize);
  const Decoded d = DecodeBytes(buf);
  ASSERT_EQ(d.status, DecodeStatus::kOk);
  EXPECT_EQ(d.msg.stats, c);
  EXPECT_FALSE(d.msg.stats_hist.present);
  EXPECT_TRUE(d.msg.stats_hist.buckets.empty());
  EXPECT_EQ(Reencode(d.msg), buf);
}

// A 24 B frame whose prologue claims 2^22 rows it does not carry is
// rejected before anything is reserved for them.
TEST(WireCodec, QuotaDeltaRowCountCannotReserveBeyondPayload) {
  Bytes f = RawHeader(MsgType::kQuotaDelta, 16);
  f.resize(kH + 16, 0);
  PutLE<std::uint32_t>(f.data() + kH + 4, 1u << 22);
  const Decoded d = DecodeBytes(f);
  EXPECT_EQ(d.status, DecodeStatus::kError);
  EXPECT_LE(d.msg.delta.rows.capacity(), 16 / 8);
}

// Counts one over an in-payload cap are rejected even when the stated
// length agrees with them exactly (the header band alone cannot tell).
// Each frame holds n ascending u32 keys at a fixed width from elems_at.
TEST(WireCodec, InPayloadCapsRejectCountsOneOver) {
  const struct {
    const char* what;
    MsgType type;
    std::size_t count_at, elems_at, width;
    std::uint32_t n;
  } cases[] = {
      {"delta rows", MsgType::kQuotaDelta, kH + 4, kH + 16, 8, (1u << 22) + 1},
      {"delta cells", MsgType::kQuotaDelta, kH + 20, kH + 24, 20,
       (1u << 20) + 1},
      {"down nodes", MsgType::kEpochUpdate, kH + 4, kH + 16, 4, (1u << 22) + 1},
      {"reassigns", MsgType::kEpochUpdate, kH + 8, kH + 16, 8, (1u << 22) + 1}};
  for (const auto& c : cases) {
    const std::size_t size = c.elems_at + c.width * c.n;
    Bytes f = RawHeader(c.type, static_cast<std::uint32_t>(size - kH));
    f.resize(size, 0);
    // A cells case sits in one row.
    if (c.count_at == kH + 20) PutLE<std::uint32_t>(f.data() + kH + 4, 1);
    PutLE<std::uint32_t>(f.data() + c.count_at, c.n);
    for (std::uint32_t k = 0; k < c.n; ++k)
      PutLE<std::uint32_t>(f.data() + c.elems_at + c.width * k, k);
    EXPECT_EQ(DecodeBytes(f).status, DecodeStatus::kError) << c.what;
  }
}

TEST(WireCodec, HeaderCorruptionIsError) {
  Bytes frame = Encoded(RandomGetRequest(31, 0));

  // Every single-byte corruption of the 8-byte header is kError (bad
  // magic/version/type) or a type/length mismatch.
  for (std::size_t at = 0; at < kH; ++at) {
    Bytes bad = frame;
    bad[at] ^= 0xff;
    EXPECT_EQ(DecodeBytes(bad).status, DecodeStatus::kError)
        << "header byte " << at;
  }

  // Bad leading bytes are reported as garbage immediately, even before a
  // full header has arrived — a stream transport must not wait for more
  // bytes of a frame that can never become valid.
  const std::uint8_t garbage[2] = {0x00, 0x99};
  EXPECT_EQ(DecodeBytes(garbage, 1).status, DecodeStatus::kError);

  // A type whose payload size disagrees with the stated length.
  Bytes mismatched = frame;
  mismatched[3] = static_cast<std::uint8_t>(MsgType::kLoadGossip);
  EXPECT_EQ(DecodeBytes(mismatched).status, DecodeStatus::kError);
}

TEST(WireCodec, DoubleFieldsRoundTripBitExactly) {
  const double specials[] = {0.0, -0.0, 1.0 / 3.0,
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::denorm_min(),
                             std::numeric_limits<double>::max()};
  for (double v : specials) {
    const Decoded d = DecodeBytes(Encoded(LoadGossip{1, 2, v}));
    ASSERT_EQ(d.status, DecodeStatus::kOk);
    std::uint64_t want, got;
    std::memcpy(&want, &v, sizeof want);
    std::memcpy(&got, &d.msg.gossip.load, sizeof got);
    EXPECT_EQ(got, want);  // bit pattern, so NaN payloads survive too
  }
}

TEST(WireCodec, EncodingIsExplicitlyLittleEndian) {
  GetRequest m;
  m.req_id = 0x0102030405060708ULL;
  m.doc = 0x0a0b0c0d;
  m.origin_node = 5;
  m.ttl_hops = 0x1122;
  m.failed = 0;
  m.flags = 0x3344;
  m.trace_seq = 0x5566;
  const Bytes buf = Encoded(m);
  // Header: magic 0x5741 is "A" then "W" in little-endian byte order.
  EXPECT_EQ(buf[0], 0x41);
  EXPECT_EQ(buf[1], 0x57);
  EXPECT_EQ(buf[2], MessageCodec::kVersion);
  EXPECT_EQ(buf[3], static_cast<std::uint8_t>(MsgType::kGetRequest));
  // req_id low byte first.
  EXPECT_EQ(buf[kH + 0], 0x08);
  EXPECT_EQ(buf[kH + 7], 0x01);
  // doc at offset 8, LE.
  EXPECT_EQ(buf[kH + 8], 0x0d);
  EXPECT_EQ(buf[kH + 11], 0x0a);
  // ttl_hops at offset 16, LE.
  EXPECT_EQ(buf[kH + 16], 0x22);
  EXPECT_EQ(buf[kH + 17], 0x11);
  // flags at offset 20, trace_seq at 22, LE.
  EXPECT_EQ(buf[kH + 20], 0x44);
  EXPECT_EQ(buf[kH + 21], 0x33);
  EXPECT_EQ(buf[kH + 22], 0x66);
  EXPECT_EQ(buf[kH + 23], 0x55);
}

// ---------------------------------------------------------------------------
// The mutation fuzzer: corpus frames with counter-seeded bit flips, u32
// count/length overwrites on the 4-byte field grid (payload fields and
// counts all sit on it) and truncations, optionally re-stamping the header
// length to the cut.  Laws, for every input:
//   * Decode never faults or reads past the end (the input sits in an
//     exact-size heap block, so ASan flags any over-read);
//   * a kOk decode consumed a whole frame and re-encodes to its bytes;
//   * no decoded array reserved more elements than the payload can hold.

void Mutate(Bytes* f, std::uint64_t seed, std::uint64_t i) {
  const std::size_t n = f->size();
  const std::uint64_t kind = Draw(seed, i, 1) % 4;
  if (kind == 0) {  // one to three bit flips
    for (std::uint64_t k = 0; k < 1 + Draw(seed, i, 2) % 3; ++k) {
      const std::uint64_t bit = Draw(seed, i, 10 + k) % (8 * n);
      (*f)[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    }
  } else if (kind == 3) {  // truncation, half the time re-stamping the length
    const std::size_t cut = Draw(seed, i, 6) % n;
    f->resize(cut);
    if (cut >= kH && (Draw(seed, i, 7) & 1))
      PutLE<std::uint32_t>(f->data() + 4, static_cast<std::uint32_t>(cut - kH));
  } else {  // a u32 overwrite of the stated length, or on the payload grid
    const auto payload = static_cast<std::uint32_t>(n - kH);
    const std::uint32_t interesting[] = {
        0,        1,          2,        payload - 1,    payload + 1,
        1u << 12, 1u << 20,   1u << 22, (1u << 22) + 1, 1u << 27,
        ~0u,      0x7fffffff, static_cast<std::uint32_t>(Draw(seed, i, 3))};
    std::size_t at = 4;
    if (kind == 2 && n >= kH + 4)
      at = kH + 4 * (Draw(seed, i, 5) % ((n - kH) / 4));
    PutLE<std::uint32_t>(f->data() + at, interesting[Draw(seed, i, 4) % 13]);
  }
}

// The fits-the-payload law, array by array.
void ExpectReservesFit(const WireMessage& m, std::size_t payload) {
  EXPECT_LE(m.trace.capacity() * 24, payload);
  EXPECT_LE(m.flight.events.capacity() * 24, payload);
  EXPECT_LE(m.stats_hist.buckets.capacity() * 12, payload);
  EXPECT_LE(m.delta.rows.capacity() * 8, payload);
  for (const QuotaDeltaRow& r : m.delta.rows)
    EXPECT_LE(r.cells.capacity() * 20, payload);
  EXPECT_LE(m.epoch_update.down.capacity() * 4, payload);
  EXPECT_LE(m.epoch_update.reassign.capacity() * 8, payload);
}

TEST(WireFuzz, MutatedFramesDecodeSafelyAndReencodeExactly) {
  // Seeds by type, so every frame type is mutated equally often.
  std::vector<std::vector<Bytes>> seeds(std::size(kAllTypes));
  for (const Sample& s : Samples())
    seeds[std::find(std::begin(kAllTypes), std::end(kAllTypes), s.type) -
          std::begin(kAllTypes)]
        .push_back(s.bytes);
  constexpr std::uint64_t kSeed = 0xf022, kIterations = 300000;
  std::uint64_t ok = 0;
  for (std::uint64_t i = 0; i < kIterations && !HasFailure(); ++i) {
    const std::vector<Bytes>& of = seeds[Draw(kSeed, i, 0) % seeds.size()];
    Bytes f = of[Draw(kSeed, i, 8) % of.size()];
    Mutate(&f, kSeed, i);
    const std::unique_ptr<std::uint8_t[]> exact(new std::uint8_t[f.size()]);
    std::copy(f.begin(), f.end(), exact.get());
    const Decoded d = DecodeBytes(exact.get(), f.size());
    if (d.status == DecodeStatus::kOk) {
      ++ok;
      ASSERT_LE(d.consumed, f.size()) << "iteration " << i;
      EXPECT_EQ(Reencode(d.msg), Bytes(f.begin(), f.begin() + d.consumed))
          << "iteration " << i;
    } else {
      EXPECT_EQ(d.consumed, 0u) << "iteration " << i;
    }
    ExpectReservesFit(d.msg, f.size() > kH ? f.size() - kH : 0);
  }
  // About a fifth of the mutants still decode, so the laws are exercised
  // on payloads, not only on headers.
  EXPECT_GT(ok, kIterations / 8);
}

// ---------------------------------------------------------------------------

QuotaSnapshot MakeSnapshotWithDemand(std::uint64_t demand_seed) {
  Rng rng(42);
  const RoutingTree tree = MakeRandomTree(200, rng);
  DemandMatrix demand(200, 8);
  Rng drng(demand_seed);
  for (NodeId v = 0; v < 200; ++v)
    if (tree.children(v).empty())
      for (std::int32_t d = 0; d < 8; ++d)
        demand.set(v, d, drng.NextDouble(0.1, 4.0));
  const PlacementResult placement = DerivePlacement(tree, demand);
  return QuotaSnapshot::FromPlacement(tree, placement, demand, 1e-9);
}

QuotaSnapshot MakeSnapshot() { return MakeSnapshotWithDemand(7); }

TEST(QuotaWire, RoundTripIsByteExact) {
  const QuotaSnapshot s = MakeSnapshot();
  ASSERT_GT(s.cell_count(), 0);

  Bytes bytes;
  const std::size_t n = QuotaWireTable::Serialize(s, &bytes);
  ASSERT_EQ(n, bytes.size());

  QuotaSnapshot back;
  ASSERT_TRUE(QuotaWireTable::Deserialize(bytes.data(), bytes.size(), &back));

  ASSERT_EQ(back.node_count(), s.node_count());
  ASSERT_EQ(back.doc_count(), s.doc_count());
  ASSERT_EQ(back.cell_count(), s.cell_count());
  // total_rate survives with the exact bit pattern, not a re-sum.
  std::uint64_t want, got;
  double wd = s.total_rate(), gd = back.total_rate();
  std::memcpy(&want, &wd, sizeof want);
  std::memcpy(&got, &gd, sizeof got);
  EXPECT_EQ(got, want);
  for (NodeId v = 0; v < s.node_count(); ++v) {
    ASSERT_EQ(back.row_begin(v), s.row_begin(v));
    ASSERT_EQ(back.row_end(v), s.row_end(v));
  }
  for (std::int64_t c = 0; c < s.cell_count(); ++c) {
    ASSERT_EQ(back.cell_docs()[c], s.cell_docs()[c]);
    ASSERT_EQ(back.cell_rates()[c], s.cell_rates()[c]);
    ASSERT_EQ(back.cell_fractions()[c], s.cell_fractions()[c]);
  }

  // Serializing the reconstruction reproduces the exact byte string.
  Bytes again;
  QuotaWireTable::Serialize(back, &again);
  EXPECT_EQ(again, bytes);
}

TEST(QuotaWire, CorruptTablesAreRejected) {
  const QuotaSnapshot s = MakeSnapshot();
  Bytes bytes;
  QuotaWireTable::Serialize(s, &bytes);

  QuotaSnapshot out;
  // Truncations at a sample of cut points (every prefix would be O(n²)).
  for (std::size_t cut = 0; cut < bytes.size();
       cut += 1 + bytes.size() / 64)
    EXPECT_FALSE(QuotaWireTable::Deserialize(bytes.data(), cut, &out));
  // Bad magic / version.
  Bytes bad = bytes;
  bad[0] ^= 0xff;
  EXPECT_FALSE(QuotaWireTable::Deserialize(bad.data(), bad.size(), &out));
  bad = bytes;
  bad[4] ^= 0xff;
  EXPECT_FALSE(QuotaWireTable::Deserialize(bad.data(), bad.size(), &out));
  // Non-monotone row offsets.
  bad = bytes;
  bad[32] = 0xff;  // row_off[0] becomes nonzero
  EXPECT_FALSE(QuotaWireTable::Deserialize(bad.data(), bad.size(), &out));
  // A cell count whose byte size wraps modulo 2^64 back to the blob's
  // length: 1 node, 2^62 cells, row offsets {0, 2^62}, 48 bytes in all.
  Bytes wrap(48, 0);
  PutLE<std::uint32_t>(wrap.data(), QuotaWireTable::kMagic);
  PutLE<std::uint32_t>(wrap.data() + 4, QuotaWireTable::kVersion);
  PutLE<std::uint32_t>(wrap.data() + 8, 1);
  PutLE<std::uint32_t>(wrap.data() + 12, 1);
  PutLE<std::uint64_t>(wrap.data() + 16, std::uint64_t{1} << 62);
  PutLE<std::uint64_t>(wrap.data() + 40, std::uint64_t{1} << 62);
  EXPECT_FALSE(QuotaWireTable::Deserialize(wrap.data(), wrap.size(), &out));
}

TEST(QuotaWire, FileRoundTrip) {
  const QuotaSnapshot s = MakeSnapshot();
  const std::string path = ::testing::TempDir() + "/quota_wire_test.bin";
  ASSERT_TRUE(QuotaWireTable::WriteFile(s, path));
  QuotaSnapshot back;
  ASSERT_TRUE(QuotaWireTable::ReadFile(path, &back));
  EXPECT_EQ(back.cell_count(), s.cell_count());
  EXPECT_EQ(back.total_rate(), s.total_rate());
  std::remove(path.c_str());
}

// The delta law the rejoin protocol rests on: applying the diff of two
// same-shaped tables to the first reproduces the second byte-for-byte.
TEST(QuotaWire, DiffApplyLawReproducesTargetByteExactly) {
  const QuotaSnapshot a = MakeSnapshotWithDemand(7);
  const QuotaSnapshot b = MakeSnapshotWithDemand(8);

  QuotaDelta d;
  ASSERT_TRUE(QuotaWireTable::DiffSnapshots(a, b, &d));
  ASSERT_GT(d.rows.size(), 0u);  // different demand must move some rows

  QuotaSnapshot patched = a;
  ASSERT_TRUE(QuotaWireTable::ApplyDelta(d, &patched));
  Bytes want, got;
  QuotaWireTable::Serialize(b, &want);
  QuotaWireTable::Serialize(patched, &got);
  EXPECT_EQ(got, want);

  // Identical tables diff to an empty delta that applies as a no-op.
  QuotaDelta none;
  ASSERT_TRUE(QuotaWireTable::DiffSnapshots(a, a, &none));
  EXPECT_TRUE(none.rows.empty());
  QuotaSnapshot same = a;
  ASSERT_TRUE(QuotaWireTable::ApplyDelta(none, &same));
  Bytes base, after;
  QuotaWireTable::Serialize(a, &base);
  QuotaWireTable::Serialize(same, &after);
  EXPECT_EQ(after, base);
}

// A 50-node table, shaped unlike MakeSnapshot()'s 200 nodes.
QuotaSnapshot MakeSmallSnapshot() {
  Rng rng(43);
  const RoutingTree small_tree = MakeRandomTree(50, rng);
  DemandMatrix demand(50, 8);
  Rng drng(9);
  for (NodeId v = 0; v < 50; ++v)
    if (small_tree.children(v).empty())
      for (std::int32_t d = 0; d < 8; ++d)
        demand.set(v, d, drng.NextDouble(0.1, 4.0));
  return QuotaSnapshot::FromPlacement(
      small_tree, DerivePlacement(small_tree, demand), demand, 1e-9);
}

TEST(QuotaWire, DiffRejectsShapeMismatch) {
  const QuotaSnapshot big = MakeSnapshot();
  const QuotaSnapshot small = MakeSmallSnapshot();

  QuotaDelta d;
  EXPECT_FALSE(QuotaWireTable::DiffSnapshots(big, small, &d));
  EXPECT_FALSE(QuotaWireTable::DiffSnapshots(small, big, &d));
}

// The quota-blob mutation fuzzer: WireFuzz's counter-seeded scheme over
// serialized tables (the loadgen decodes every epoch blob, each daemon
// its boot blob).  Bit flips, truncations or appended trailing bytes,
// and count overwrites: a u32 on the 4-byte grid (node and doc counts,
// document ids) or a u64 cell count or CSR row offset, drawn from the
// edges of Deserialize's length caps (nodes < len/8, cells <= len/20)
// and of the stated counts.  Laws, for every input:
//   * Deserialize never faults or reads past the end (exact-size heap
//     block, so ASan flags any over-read);
//   * an accepted blob re-serializes to exactly its bytes;
//   * a rejected blob leaves the output snapshot untouched.
void MutateBlob(Bytes* b, std::uint64_t seed, std::uint64_t i) {
  const std::size_t n = b->size();
  const std::uint64_t kind = Draw(seed, i, 1) % 4;
  if (kind == 0) {  // one to three bit flips
    for (std::uint64_t k = 0; k < 1 + Draw(seed, i, 2) % 3; ++k) {
      const std::uint64_t bit = Draw(seed, i, 10 + k) % (8 * n);
      (*b)[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    }
    return;
  }
  if (kind == 3) {  // truncation, or (half the time) trailing bytes
    if (Draw(seed, i, 7) & 1)
      b->resize(Draw(seed, i, 6) % n);
    else
      b->resize(n + 1 + Draw(seed, i, 6) % 16, 0xa5);
    return;
  }
  const std::uint64_t nodes = GetLE<std::uint32_t>(b->data() + 8);
  const std::uint64_t cells = GetLE<std::uint64_t>(b->data() + 16);
  const std::uint64_t edges[] = {
      0,         1,          nodes - 1, nodes + 1, cells - 1,
      cells + 1, n / 8 - 1,  n / 8,     n / 20,    n / 20 + 1,
      1u << 31,  0x7fffffff, ~0ull,     1ull << 62, Draw(seed, i, 3)};
  const std::uint64_t v = edges[Draw(seed, i, 4) % std::size(edges)];
  if (kind == 1) {
    const std::size_t at = 4 * (Draw(seed, i, 5) % (n / 4));
    PutLE<std::uint32_t>(b->data() + at, static_cast<std::uint32_t>(v));
  } else {  // the cell count (k = 0) or row offset k - 1
    const std::uint64_t k = Draw(seed, i, 5) % (nodes + 2);
    PutLE<std::uint64_t>(b->data() + (k == 0 ? 16 : 32 + 8 * (k - 1)), v);
  }
}

TEST(WireFuzz, MutatedQuotaBlobsDeserializeSafelyAndReserializeExactly) {
  std::vector<Bytes> seeds(2);
  QuotaWireTable::Serialize(MakeSmallSnapshot(), &seeds[0]);
  QuotaWireTable::Serialize(QuotaSnapshot{}, &seeds[1]);
  const QuotaSnapshot sentinel = MakeSnapshot();
  Bytes sentinel_bytes;
  QuotaWireTable::Serialize(sentinel, &sentinel_bytes);
  constexpr std::uint64_t kSeed = 0xb10b, kIterations = 20000;
  std::uint64_t ok = 0;
  for (std::uint64_t i = 0; i < kIterations && !HasFailure(); ++i) {
    Bytes b = seeds[Draw(kSeed, i, 0) % seeds.size()];
    MutateBlob(&b, kSeed, i);
    const std::unique_ptr<std::uint8_t[]> exact(new std::uint8_t[b.size()]);
    std::copy(b.begin(), b.end(), exact.get());
    QuotaSnapshot out = sentinel;
    const bool accepted =
        QuotaWireTable::Deserialize(exact.get(), b.size(), &out);
    ok += accepted;
    Bytes again;
    QuotaWireTable::Serialize(out, &again);
    EXPECT_EQ(again, accepted ? b : sentinel_bytes) << "iteration " << i;
  }
  // Flips in the rate and fraction columns keep a blob valid, so a good
  // share of mutants exercise the accept-and-reserialize law.
  EXPECT_GT(ok, kIterations / 8);
}

}  // namespace
}  // namespace webwave
