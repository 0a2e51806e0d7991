// StreamSpec and control-message serialization: exact round-trips (the
// snapshot with every field distinct), hostile payload rejection, and the
// determinism contract a resumed segment relies on — the same spec
// materializes the same specialized models on any node.
#include "node/stream_spec.hpp"

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <string>

#include "net/wire.hpp"
#include "node/protocol.hpp"

namespace ffsva::node {
namespace {

StreamSpec sample_spec() {
  StreamSpec s;
  s.stream_id = 9;
  s.profile = Profile::kCoral;
  s.tor = 0.37;
  s.seed = 0xdeadbeefULL;
  s.calib_frames = 12;
  s.begin = 40;
  s.end = 900;
  s.snm_epochs = 3;
  s.width = 64;
  s.height = 48;
  return s;
}

TEST(StreamSpec, SerializeParseRoundTrip) {
  const StreamSpec s = sample_spec();
  const auto parsed = StreamSpec::parse(s.serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->stream_id, s.stream_id);
  EXPECT_EQ(parsed->profile, s.profile);
  EXPECT_DOUBLE_EQ(parsed->tor, s.tor);
  EXPECT_EQ(parsed->seed, s.seed);
  EXPECT_EQ(parsed->calib_frames, s.calib_frames);
  EXPECT_EQ(parsed->begin, s.begin);
  EXPECT_EQ(parsed->end, s.end);
  EXPECT_EQ(parsed->snm_epochs, s.snm_epochs);
  EXPECT_EQ(parsed->width, s.width);
  EXPECT_EQ(parsed->height, s.height);
}

TEST(StreamSpec, ParseRejectsHostileBytes) {
  const StreamSpec s = sample_spec();
  const std::string good = s.serialize();
  // Truncation at every prefix length must fail cleanly, never crash.
  for (std::size_t len = 0; len < good.size(); ++len) {
    EXPECT_FALSE(StreamSpec::parse(good.substr(0, len)).has_value())
        << "prefix " << len;
  }
  // Inverted window (end < begin) is semantically invalid.
  StreamSpec bad = s;
  bad.begin = 900;
  bad.end = 40;
  EXPECT_FALSE(StreamSpec::parse(bad.serialize()).has_value());
  // Serving before the calibration window would replay calib frames.
  StreamSpec early = s;
  early.calib_frames = 50;
  early.begin = 10;
  EXPECT_FALSE(StreamSpec::parse(early.serialize()).has_value());
}

TEST(StreamSpec, MaterializeIsDeterministicAcrossNodes) {
  StreamSpec s = sample_spec();
  s.end = 80;  // keep the render short
  MaterializedStream a = materialize(s);
  MaterializedStream b = materialize(s);
  // Two independent materializations (as two nodes would perform) must
  // produce identical per-frame verdict behaviour; probe via the sources.
  for (int i = 0; i < 40; ++i) {
    auto fa = a.source->next();
    auto fb = b.source->next();
    ASSERT_EQ(fa.has_value(), fb.has_value()) << "frame " << i;
    if (!fa) break;
    EXPECT_EQ(fa->index, fb->index);
    EXPECT_EQ(fa->stream_id, static_cast<int>(s.stream_id));
    EXPECT_TRUE(fa->image == fb->image) << "frame " << i;
  }
}

TEST(StreamSpec, ResumedSourceContinuesAtCursor) {
  StreamSpec s = sample_spec();
  s.begin = 40;
  s.end = 60;
  MaterializedStream full = materialize(s);
  auto first = full.source->next();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->index, std::int64_t{40});

  StreamSpec resumed = s;
  resumed.begin = 50;  // as if 10 frames were served before the hand-off
  MaterializedStream rest = materialize(resumed);
  auto cont = rest.source->next();
  ASSERT_TRUE(cont.has_value());
  EXPECT_EQ(cont->index, std::int64_t{50});
  std::uint64_t count = 1;
  while (rest.source->next()) ++count;
  EXPECT_EQ(count, 10u);
}

TEST(Protocol, AssignAndResultsRoundTrip) {
  AssignStream as;
  as.spec = sample_spec();
  as.resume = true;
  const auto parsed = AssignStream::parse(as.serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->resume);
  EXPECT_EQ(parsed->spec.stream_id, 9u);
  EXPECT_EQ(parsed->spec.end, 900u);

  StreamResults res;
  res.stream_id = 9;
  res.emitted_frames = {40, 41, 55, 899};
  const auto rr = StreamResults::parse(res.serialize());
  ASSERT_TRUE(rr.has_value());
  EXPECT_EQ(rr->stream_id, 9u);
  EXPECT_EQ(rr->emitted_frames, res.emitted_frames);

  StreamEnded ended;
  ended.stream_id = 9;
  ended.cursor = 512;
  ended.ingested = 472;
  ended.emitted = 31;
  const auto re = StreamEnded::parse(ended.serialize());
  ASSERT_TRUE(re.has_value());
  EXPECT_EQ(re->cursor, 512u);
  EXPECT_EQ(re->ingested, 472u);

  // Hostile vector length: a results blob claiming more elements than the
  // payload carries must be rejected, not allocated.
  std::string blob = res.serialize();
  EXPECT_FALSE(StreamResults::parse(blob.substr(0, blob.size() - 3))
                   .has_value());
}

/// A snapshot whose every counter, queue depth and health field holds a
/// distinct non-zero value (every flag set), so a field the wire drops,
/// swaps or misreads cannot round-trip.
core::InstanceSnapshot distinct_snapshot(int streams) {
  std::uint64_t v = 0;
  const auto next = [&v] { return ++v; };
  const auto fill_fault = [&](core::FaultStats& f) {
    for (auto* c : {&f.decode_errors, &f.retries, &f.restarts, &f.degraded_frames,
                    &f.discarded_frames, &f.cancelled_calls, &f.poisoned_frames}) {
      *c = next();
    }
    f.quarantined = true;
  };
  core::InstanceSnapshot snap;
  snap.running = true;
  snap.t_sec = 12.25;
  snap.ref_queue_depth = next();
  snap.outputs = next();
  auto& h = snap.health;
  h.healthy_streams = static_cast<int>(next());
  h.degraded_streams = static_cast<int>(next());
  h.quarantined_streams = static_cast<int>(next());
  fill_fault(h.fault);
  h.stage_stall_ticks = next();
  h.stopped = true;
  h.deadline_hit = true;
  for (int i = 0; i < streams; ++i) {
    core::StreamSnapshot s;
    s.id = static_cast<int>(next());
    for (auto* st : {&s.prefetch, &s.sdd, &s.snm, &s.tyolo, &s.ref}) {
      st->in = next();
      st->passed = next();
    }
    s.dropped_at_ingest = next();
    for (auto* c : {&s.ingest.decode_full, &s.ingest.decode_skipped,
                    &s.ingest.hint_passes, &s.ingest.hint_fallbacks}) {
      *c = next();
    }
    s.ingest.compression_ratio = 1.5 + i;
    fill_fault(s.fault);
    s.terminated = next();
    s.ingest_done = true;
    s.sdd_queue_depth = next();
    s.snm_queue_depth = next();
    s.tyolo_queue_depth = next();
    snap.streams.push_back(s);
  }
  return snap;
}

TEST(Protocol, SnapshotRoundTrip) {
  const core::InstanceSnapshot snap = distinct_snapshot(3);
  const std::string blob = serialize_snapshot(snap);
  const auto back = parse_snapshot(blob);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->running, snap.running);
  EXPECT_EQ(back->t_sec, snap.t_sec);
  EXPECT_EQ(back->ref_queue_depth, snap.ref_queue_depth);
  EXPECT_EQ(back->outputs, snap.outputs);
  EXPECT_TRUE(back->health == snap.health);
  ASSERT_EQ(back->streams.size(), snap.streams.size());
  for (std::size_t i = 0; i < snap.streams.size(); ++i) {
    EXPECT_TRUE(back->streams[i] == snap.streams[i]) << "stream " << i;
  }
  // Every strict prefix is a truncated payload and must not parse.
  for (std::size_t n = 0; n < blob.size(); ++n) {
    EXPECT_FALSE(parse_snapshot(blob.substr(0, n)).has_value()) << "prefix " << n;
  }
}

// The wire layout of snapshot v3, pinned byte for byte: the counter
// fields travel in core/counters.hpp's visit order, so reordering that list
// changes these bytes (and must bump net::kWireVersion).
TEST(Protocol, SnapshotWireBytesArePinned) {
  constexpr const char* kGolden =
      "0100000000008028400100000000000000020000000000000003000000040000"
      "0005000000060000000000000007000000000000000800000000000000090000"
      "00000000000a000000000000000b000000000000000c00000000000000010d00"
      "0000000000000101010000000e0000000f000000000000001000000000000000"
      "1100000000000000120000000000000013000000000000001400000000000000"
      "1500000000000000160000000000000017000000000000001800000000000000"
      "19000000000000001a000000000000001b000000000000001c00000000000000"
      "1d00000000000000000000000000f83f1e000000000000001f00000000000000"
      "2000000000000000210000000000000022000000000000002300000000000000"
      "2400000000000000012500000000000000012600000000000000270000000000"
      "00002800000000000000";
  const std::string blob = serialize_snapshot(distinct_snapshot(1));
  std::string hex;
  for (const unsigned char c : blob) {
    hex += "0123456789abcdef"[c >> 4];
    hex += "0123456789abcdef"[c & 15];
  }
  EXPECT_EQ(hex, kGolden);
  EXPECT_EQ(net::kWireVersion, 3);
}

long peak_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

TEST(Protocol, HostileCountsAreRejected) {
  // An element count far beyond what the payload carries must be rejected
  // at the payload's end, never allocated up front.
  const long rss_before = peak_rss_kb();
  const std::size_t header = serialize_snapshot(distinct_snapshot(0)).size();
  std::string snap = serialize_snapshot(distinct_snapshot(1));
  for (const std::uint32_t count : {std::uint32_t{1} << 20,
                                    std::numeric_limits<std::uint32_t>::max()}) {
    // The stream count is the header's last field.
    std::memcpy(snap.data() + header - sizeof(count), &count, sizeof(count));
    EXPECT_FALSE(parse_snapshot(snap).has_value()) << count;
  }

  StreamResults res;
  res.stream_id = 9;
  res.emitted_frames = {40, 41};
  std::string blob = res.serialize();
  for (const std::uint64_t count : {std::uint64_t{1} << 20,
                                    std::numeric_limits<std::uint64_t>::max()}) {
    // The frame count follows the u32 stream id.
    std::memcpy(blob.data() + sizeof(res.stream_id), &count, sizeof(count));
    EXPECT_FALSE(StreamResults::parse(blob).has_value()) << count;
  }
  // Sizing the vectors by the claimed 2^20 counts would cost ~240 MB.
  EXPECT_LT(peak_rss_kb() - rss_before, 32L * 1024);
}

}  // namespace
}  // namespace ffsva::node
