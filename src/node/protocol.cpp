#include "node/protocol.hpp"

#include <sstream>

#include "runtime/binary_io.hpp"

namespace ffsva::node {

namespace {

template <typename T>
void w(std::ostream& os, const T& v) {
  runtime::write_pod(os, &v);
}

template <typename T>
bool r(std::istream& is, T* v) {
  return runtime::read_pod(is, v);
}

void w_bool(std::ostream& os, bool b) {
  const std::uint8_t v = b ? 1 : 0;
  w(os, v);
}

bool r_bool(std::istream& is, bool* b) {
  std::uint8_t v = 0;
  if (!r(is, &v)) return false;
  *b = v != 0;
  return true;
}

void write_fault(std::ostream& os, const core::FaultStats& f) {
  w(os, f.decode_errors);
  w(os, f.retries);
  w(os, f.restarts);
  w(os, f.degraded_frames);
  w(os, f.discarded_frames);
  w(os, f.cancelled_calls);
  w(os, f.poisoned_frames);
  w_bool(os, f.quarantined);
}

bool read_fault(std::istream& is, core::FaultStats* f) {
  return r(is, &f->decode_errors) && r(is, &f->retries) &&
         r(is, &f->restarts) && r(is, &f->degraded_frames) &&
         r(is, &f->discarded_frames) && r(is, &f->cancelled_calls) &&
         r(is, &f->poisoned_frames) && r_bool(is, &f->quarantined);
}

/// The one wire form of the per-stream counter schema.
void write_counters(std::ostream& os, const core::StreamCounters& c) {
  for (const auto* st : {&c.prefetch, &c.sdd, &c.snm, &c.tyolo, &c.ref}) {
    w(os, st->in);
    w(os, st->passed);
  }
  w(os, c.dropped_at_ingest);
  w(os, c.ingest.decode_full);
  w(os, c.ingest.decode_skipped);
  w(os, c.ingest.hint_passes);
  w(os, c.ingest.hint_fallbacks);
  w(os, c.ingest.compression_ratio);
  write_fault(os, c.fault);
}

bool read_counters(std::istream& is, core::StreamCounters* c) {
  for (auto* st : {&c->prefetch, &c->sdd, &c->snm, &c->tyolo, &c->ref}) {
    if (!r(is, &st->in) || !r(is, &st->passed)) return false;
  }
  return r(is, &c->dropped_at_ingest) && r(is, &c->ingest.decode_full) &&
         r(is, &c->ingest.decode_skipped) && r(is, &c->ingest.hint_passes) &&
         r(is, &c->ingest.hint_fallbacks) && r(is, &c->ingest.compression_ratio) &&
         read_fault(is, &c->fault);
}

void write_stream(std::ostream& os, const core::StreamSnapshot& s) {
  w(os, static_cast<std::int32_t>(s.id));
  write_counters(os, s);
  w(os, s.terminated);
  w_bool(os, s.ingest_done);
  w(os, static_cast<std::uint64_t>(s.sdd_queue_depth));
  w(os, static_cast<std::uint64_t>(s.snm_queue_depth));
  w(os, static_cast<std::uint64_t>(s.tyolo_queue_depth));
}

bool read_stream(std::istream& is, core::StreamSnapshot* s) {
  std::int32_t id = 0;
  std::uint64_t sddq = 0, snmq = 0, tyq = 0;
  if (!(r(is, &id) && read_counters(is, s) && r(is, &s->terminated) &&
        r_bool(is, &s->ingest_done) && r(is, &sddq) && r(is, &snmq) &&
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
  write_fault(os, h.fault);
  w(os, h.cancels);
  w(os, h.stage_restarts);
  w(os, h.stage_stall_ticks);
  w_bool(os, h.stopped);
  w_bool(os, h.deadline_hit);
}

bool read_health(std::istream& is, core::HealthSummary* h) {
  std::int32_t healthy = 0, degraded = 0, quarantined = 0;
  if (!(r(is, &healthy) && r(is, &degraded) && r(is, &quarantined) &&
        read_fault(is, &h->fault) && r(is, &h->cancels) &&
        r(is, &h->stage_restarts) && r(is, &h->stage_stall_ticks) &&
        r_bool(is, &h->stopped) && r_bool(is, &h->deadline_hit))) {
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
  w_bool(os, resume);
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
  if (!spec || !r_bool(is, &a.resume)) return std::nullopt;
  a.spec = *spec;
  return a;
}

std::string AssignAck::serialize() const {
  std::ostringstream os;
  w(os, stream_id);
  w_bool(os, ok);
  w(os, local_id);
  return std::move(os).str();
}

std::optional<AssignAck> AssignAck::parse(std::string_view payload) {
  std::istringstream is{std::string(payload)};
  AssignAck a;
  if (!r(is, &a.stream_id) || !r_bool(is, &a.ok) || !r(is, &a.local_id)) {
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
  w_bool(os, snap.running);
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
  if (!r_bool(is, &snap.running) || !r(is, &snap.t_sec) || !r(is, &refq) ||
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
