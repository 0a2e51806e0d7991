#include "node/protocol.hpp"

#include <sstream>
#include <type_traits>

#include "runtime/binary_io.hpp"

namespace ffsva::node {

namespace {

/// One fixed-width field; a bool travels as one byte (0 or 1).
template <typename T>
void w(std::ostream& os, const T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    const std::uint8_t b = v ? 1 : 0;
    runtime::write_pod(os, &b);
  } else {
    runtime::write_pod(os, &v);
  }
}

template <typename T>
bool r(std::istream& is, T* v) {
  if constexpr (std::is_same_v<T, bool>) {
    std::uint8_t b = 0;
    if (!runtime::read_pod(is, &b)) return false;
    *v = b != 0;
    return true;
  } else {
    return runtime::read_pod(is, v);
  }
}

/// The wire form of a counter struct (core/counters.hpp): every field, in
/// the schema's visit order.
template <typename Counters>
void write_counters(std::ostream& os, const Counters& c) {
  core::for_each_field([&os](const core::Field&, const auto& v) { w(os, v); }, c);
}

template <typename Counters>
bool read_counters(std::istream& is, Counters* c) {
  bool ok = true;
  core::for_each_field([&](const core::Field&, auto& v) { ok = ok && r(is, &v); },
                       *c);
  return ok;
}

void write_stream(std::ostream& os, const core::StreamSnapshot& s) {
  w(os, static_cast<std::int32_t>(s.id));
  write_counters(os, s);
  w(os, s.terminated);
  w(os, s.ingest_done);
  w(os, static_cast<std::uint64_t>(s.sdd_queue_depth));
  w(os, static_cast<std::uint64_t>(s.snm_queue_depth));
  w(os, static_cast<std::uint64_t>(s.tyolo_queue_depth));
}

bool read_stream(std::istream& is, core::StreamSnapshot* s) {
  std::int32_t id = 0;
  std::uint64_t sddq = 0, snmq = 0, tyq = 0;
  if (!(r(is, &id) && read_counters(is, s) && r(is, &s->terminated) &&
        r(is, &s->ingest_done) && r(is, &sddq) && r(is, &snmq) &&
        r(is, &tyq))) {
    return false;
  }
  s->id = id;
  s->sdd_queue_depth = static_cast<std::size_t>(sddq);
  s->snm_queue_depth = static_cast<std::size_t>(snmq);
  s->tyolo_queue_depth = static_cast<std::size_t>(tyq);
  return true;
}

void write_health(std::ostream& os, const core::HealthSummary& h) {
  w(os, static_cast<std::int32_t>(h.healthy_streams));
  w(os, static_cast<std::int32_t>(h.degraded_streams));
  w(os, static_cast<std::int32_t>(h.quarantined_streams));
  write_counters(os, h.fault);
  w(os, h.stage_stall_ticks);
  w(os, h.stopped);
  w(os, h.deadline_hit);
}

bool read_health(std::istream& is, core::HealthSummary* h) {
  std::int32_t healthy = 0, degraded = 0, quarantined = 0;
  if (!(r(is, &healthy) && r(is, &degraded) && r(is, &quarantined) &&
        read_counters(is, &h->fault) && r(is, &h->stage_stall_ticks) &&
        r(is, &h->stopped) && r(is, &h->deadline_hit))) {
    return false;
  }
  h->healthy_streams = healthy;
  h->degraded_streams = degraded;
  h->quarantined_streams = quarantined;
  return true;
}

}  // namespace

std::string AssignStream::serialize() const {
  std::ostringstream os;
  const std::string sp = spec.serialize();
  w(os, static_cast<std::uint32_t>(sp.size()));
  os.write(sp.data(), static_cast<std::streamsize>(sp.size()));
  w(os, resume);
  return std::move(os).str();
}

std::optional<AssignStream> AssignStream::parse(std::string_view payload) {
  std::istringstream is{std::string(payload)};
  std::uint32_t len = 0;
  if (!r(is, &len) || len > payload.size()) return std::nullopt;
  std::string sp(len, '\0');
  if (!is.read(sp.data(), static_cast<std::streamsize>(len))) return std::nullopt;
  AssignStream a;
  const auto spec = StreamSpec::parse(sp);
  if (!spec || !r(is, &a.resume)) return std::nullopt;
  a.spec = *spec;
  return a;
}

std::string AssignAck::serialize() const {
  std::ostringstream os;
  w(os, stream_id);
  w(os, ok);
  w(os, local_id);
  return std::move(os).str();
}

std::optional<AssignAck> AssignAck::parse(std::string_view payload) {
  std::istringstream is{std::string(payload)};
  AssignAck a;
  if (!r(is, &a.stream_id) || !r(is, &a.ok) || !r(is, &a.local_id)) {
    return std::nullopt;
  }
  return a;
}

std::string EndStream::serialize() const {
  std::ostringstream os;
  w(os, stream_id);
  return std::move(os).str();
}

std::optional<EndStream> EndStream::parse(std::string_view payload) {
  std::istringstream is{std::string(payload)};
  EndStream e;
  if (!r(is, &e.stream_id)) return std::nullopt;
  return e;
}

std::string StreamEnded::serialize() const {
  std::ostringstream os;
  w(os, stream_id);
  w(os, cursor);
  w(os, ingested);
  w(os, emitted);
  return std::move(os).str();
}

std::optional<StreamEnded> StreamEnded::parse(std::string_view payload) {
  std::istringstream is{std::string(payload)};
  StreamEnded e;
  if (!r(is, &e.stream_id) || !r(is, &e.cursor) || !r(is, &e.ingested) ||
      !r(is, &e.emitted)) {
    return std::nullopt;
  }
  return e;
}

std::string StreamResults::serialize() const {
  std::ostringstream os;
  w(os, stream_id);
  w(os, static_cast<std::uint64_t>(emitted_frames.size()));
  for (const std::uint64_t f : emitted_frames) w(os, f);
  return std::move(os).str();
}

std::optional<StreamResults> StreamResults::parse(std::string_view payload) {
  std::istringstream is{std::string(payload)};
  StreamResults res;
  std::uint64_t n = 0;
  if (!r(is, &res.stream_id) || !r(is, &n)) return std::nullopt;
  // Element counts are untrusted: append each element as it parses, so a
  // hostile count is rejected at the payload's end, never allocated.
  for (std::uint64_t i = 0; i < n; ++i) {
    std::uint64_t frame = 0;
    if (!r(is, &frame)) return std::nullopt;
    res.emitted_frames.push_back(frame);
  }
  return res;
}

std::string serialize_snapshot(const core::InstanceSnapshot& snap) {
  std::ostringstream os;
  w(os, snap.running);
  w(os, snap.t_sec);
  w(os, static_cast<std::uint64_t>(snap.ref_queue_depth));
  w(os, snap.outputs);
  write_health(os, snap.health);
  w(os, static_cast<std::uint32_t>(snap.streams.size()));
  for (const auto& s : snap.streams) write_stream(os, s);
  return std::move(os).str();
}

std::optional<core::InstanceSnapshot> parse_snapshot(std::string_view payload) {
  std::istringstream is{std::string(payload)};
  core::InstanceSnapshot snap;
  std::uint64_t refq = 0;
  std::uint32_t n = 0;
  if (!r(is, &snap.running) || !r(is, &snap.t_sec) || !r(is, &refq) ||
      !r(is, &snap.outputs) || !read_health(is, &snap.health) || !r(is, &n)) {
    return std::nullopt;
  }
  snap.ref_queue_depth = static_cast<std::size_t>(refq);
  // Same untrusted-count rule as StreamResults::parse.
  for (std::uint32_t i = 0; i < n; ++i) {
    core::StreamSnapshot s;
    if (!read_stream(is, &s)) return std::nullopt;
    snap.streams.push_back(std::move(s));
  }
  return snap;
}

}  // namespace ffsva::node
