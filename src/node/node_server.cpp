// relaxed-ok: the node/hand-off tallies (streams_owned_, handoffs_in_/out_)
// are monotonic telemetry counters surfaced as gauges; every cross-thread
// handshake that matters (owned_ maps, channel state) is under mu_ or the
// stopping_ acquire/release pair.
#include "node/node_server.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <thread>
#include <utility>

namespace ffsva::node {

namespace {

core::FfsVaConfig node_config(const NodeOptions& opts) {
  core::FfsVaConfig cfg = opts.config;
  cfg.max_streams = std::max(opts.max_streams, 1);  // serve mode
  return cfg;
}

}  // namespace

NodeServer::NodeServer(NodeOptions opts)
    : opts_(std::move(opts)), inst_(node_config(opts_)) {}

NodeServer::~NodeServer() {
  stop();
  if (engine_.joinable()) engine_.join();
}

bool NodeServer::start() {
  if (!listener_.listen(opts_.listen)) return false;
  inst_.set_output_sink([this](const core::OutputEvent& ev) {
    // Reference-thread context. The spec's LiveSource stamps the cluster-global
    // stream id into every frame, so no translation is needed here.
    runtime::MutexLock lk(mu_);
    emitted_[static_cast<std::uint32_t>(ev.frame.stream_id)].push_back(
        static_cast<std::uint64_t>(ev.frame.index));
  });
  wire_node_metrics();
  if (!opts_.metrics_path.empty()) {
    metrics_file_.open(opts_.metrics_path, std::ios::app);
    if (metrics_file_) {
      inst_.set_metrics_node_id(static_cast<int>(opts_.node_id));
      inst_.enable_metrics_export(&metrics_file_, opts_.metrics_label);
    } else {
      std::fprintf(stderr, "ffsva_node[%u]: cannot open %s; metrics export off\n",
                   opts_.node_id, opts_.metrics_path.c_str());
    }
  }
  // thread-ok: the engine thread; joined in serve()'s epilogue (or stop()).
  engine_ = std::thread([this] {
    try {
      stats_ = inst_.run(opts_.online);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "ffsva_node[%u]: engine failed: %s\n",
                   opts_.node_id, e.what());
      stopping_.store(true, std::memory_order_release);
    }
  });
  // Gate on engine readiness so an immediately-arriving kAssignStream hits
  // the live dynamic-attach path, not the pre-run/throwing window.
  // cancel-ok: bounded spin (400 x 5 ms); start() returns regardless.
  for (int i = 0; i < 400 && !inst_.snapshot().running; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return true;
}

void NodeServer::stop() { stopping_.store(true, std::memory_order_release); }

void NodeServer::serve() {
  std::optional<net::Channel> ch;
  while (!stopping_.load(std::memory_order_acquire)) {
    if (!ch || !ch->connected()) {
      // No scheduler attached: keep serving streams, wait for a dial.
      // Quiesced streams hold their results until a channel exists.
      ch.reset();
      auto sock = listener_.accept(100);
      if (sock) {
        net::Channel fresh(std::move(*sock), &counters_);
        if (fresh.handshake_server()) ch.emplace(std::move(fresh));
      }
      continue;
    }
    const auto frame = ch->recv(50);
    if (frame) handle_frame(*ch, *frame);
    poll_quiesced(&*ch);
  }
  inst_.stop();
  if (engine_.joinable()) engine_.join();
  listener_.close();
}

void NodeServer::handle_frame(net::Channel& ch, const net::WireFrame& frame) {
  switch (frame.type) {
    case net::MsgType::kHeartbeat:
      ch.send(net::MsgType::kHeartbeat);
      return;
    case net::MsgType::kSnapshot:
      ch.send(net::MsgType::kSnapshot, serialize_snapshot(global_snapshot()));
      return;
    case net::MsgType::kAssignStream:
      handle_assign(ch, frame);
      return;
    case net::MsgType::kEndStream: {
      const auto end = EndStream::parse(frame.payload);
      if (!end) return;
      int local = -1;
      {
        runtime::MutexLock lk(mu_);
        auto it = owned_.find(end->stream_id);
        if (it == owned_.end()) return;
        it->second.handoff = true;
        local = it->second.local_id;
      }
      inst_.end_stream(local);
      return;
    }
    case net::MsgType::kStop:
      // Ack only once the engine has fully stopped: the scheduler treats
      // kStopAck as "this node's process may exit now".
      inst_.stop();
      if (engine_.joinable()) engine_.join();
      ch.send(net::MsgType::kStopAck);
      stopping_.store(true, std::memory_order_release);
      return;
    // No default: -Wswitch must flag a new MsgType the server ignores.
    // These are scheduler-bound (or scheduler-sent control we answer above);
    // a server ignores them when echoed back.
    case net::MsgType::kHello:
    case net::MsgType::kHelloAck:
    case net::MsgType::kHelloReject:
    case net::MsgType::kAssignAck:
    case net::MsgType::kStreamEnded:
    case net::MsgType::kStopAck:
    case net::MsgType::kResults:
      return;
  }
  // Unknown-but-well-framed u16 values fall out of the switch and are
  // ignored (forward compat with newer peers).
}

void NodeServer::handle_assign(net::Channel& ch, const net::WireFrame& frame) {
  const auto assign = AssignStream::parse(frame.payload);
  if (!assign) {
    AssignAck nack;
    ch.send(net::MsgType::kAssignAck, nack.serialize());
    return;
  }
  AssignAck ack;
  ack.stream_id = assign->spec.stream_id;
  bool duplicate;
  {
    runtime::MutexLock lk(mu_);
    duplicate = owned_.count(assign->spec.stream_id) != 0;
  }
  if (duplicate) {
    ch.send(net::MsgType::kAssignAck, ack.serialize());  // ok=false
    return;
  }
  // Materialization (render calibration window + specialize) is the
  // expensive part of accepting a hand-off; it happens outside any lock and
  // before the engine is touched.
  MaterializedStream m = materialize(assign->spec);
  int local = -1;
  try {
    local = inst_.add_stream(std::move(m.source), std::move(m.models));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ffsva_node[%u]: assign %u rejected: %s\n",
                 opts_.node_id, assign->spec.stream_id, e.what());
    ch.send(net::MsgType::kAssignAck, ack.serialize());  // ok=false
    return;
  }
  {
    runtime::MutexLock lk(mu_);
    Owned owned;
    owned.spec = assign->spec;
    owned.local_id = local;
    owned_[assign->spec.stream_id] = owned;
    local_to_global_[local] = assign->spec.stream_id;
  }
  streams_owned_.fetch_add(1, std::memory_order_relaxed);
  if (assign->resume) handoffs_in_.fetch_add(1, std::memory_order_relaxed);
  ack.ok = true;
  ack.local_id = local;
  ch.send(net::MsgType::kAssignAck, ack.serialize());
}

void NodeServer::poll_quiesced(net::Channel* ch) {
  if (ch == nullptr || !ch->connected()) return;
  struct Pending {
    std::uint32_t gid;
    Owned owned;
  };
  std::vector<Pending> candidates;
  {
    runtime::MutexLock lk(mu_);
    for (const auto& [gid, owned] : owned_) {
      candidates.push_back({gid, owned});
    }
  }
  if (candidates.empty()) return;
  const core::InstanceSnapshot snap = inst_.snapshot();
  for (const auto& c : candidates) {
    if (!inst_.stream_quiesced(c.owned.local_id)) continue;
    // Quiescence is exact: ingest stopped and every ingested frame reached
    // a terminal outcome, the last one *after* its output was delivered to
    // the sink — so the emitted set harvested below is complete.
    std::uint64_t ingested = 0;
    for (const auto& ss : snap.streams) {
      if (ss.id == c.owned.local_id) {
        ingested = ss.prefetch.in;
        break;
      }
    }
    StreamResults results;
    results.stream_id = c.gid;
    {
      runtime::MutexLock lk(mu_);
      auto it = emitted_.find(c.gid);
      if (it != emitted_.end()) results.emitted_frames = it->second;
    }
    std::sort(results.emitted_frames.begin(), results.emitted_frames.end());
    StreamEnded ended;
    ended.stream_id = c.gid;
    ended.cursor = c.owned.spec.begin + ingested;
    ended.ingested = ingested;
    ended.emitted = results.emitted_frames.size();
    // Results travel before the terminal notice; if either send fails the
    // stream stays registered and the report is retried on the next
    // scheduler connection (the scheduler dedupes by frame index).
    if (!ch->send(net::MsgType::kResults, results.serialize())) return;
    if (!ch->send(net::MsgType::kStreamEnded, ended.serialize())) return;
    {
      runtime::MutexLock lk(mu_);
      owned_.erase(c.gid);
      local_to_global_.erase(c.owned.local_id);
      emitted_.erase(c.gid);
    }
    streams_owned_.fetch_sub(1, std::memory_order_relaxed);
    // A migration order can race natural completion: if the serving window
    // is already fully ingested, the stream *finished* here — the scheduler
    // won't resume it elsewhere, so it isn't a hand-off and must not tilt
    // the handoffs_out/handoffs_in balance.
    if (c.owned.handoff && ended.cursor < c.owned.spec.end) {
      handoffs_out_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

core::InstanceSnapshot NodeServer::global_snapshot() {
  core::InstanceSnapshot snap = inst_.snapshot();
  runtime::MutexLock lk(mu_);
  std::vector<core::StreamSnapshot> visible;
  visible.reserve(snap.streams.size());
  for (auto& ss : snap.streams) {
    const auto it = local_to_global_.find(ss.id);
    if (it == local_to_global_.end()) continue;  // handed off / finished
    ss.id = static_cast<int>(it->second);
    visible.push_back(std::move(ss));
  }
  snap.streams = std::move(visible);
  return snap;
}

void NodeServer::wire_node_metrics() {
  auto& reg = inst_.metrics();
  reg.gauge("node.streams_owned", [this] {
    return static_cast<double>(streams_owned_.load(std::memory_order_relaxed));
  });
  reg.gauge("node.handoffs_in", [this] {
    return static_cast<double>(handoffs_in_.load(std::memory_order_relaxed));
  });
  reg.gauge("node.handoffs_out", [this] {
    return static_cast<double>(handoffs_out_.load(std::memory_order_relaxed));
  });
  reg.gauge("net.bytes_tx", [this] {
    return static_cast<double>(
        counters_.bytes_tx.load(std::memory_order_relaxed));
  });
  reg.gauge("net.bytes_rx", [this] {
    return static_cast<double>(
        counters_.bytes_rx.load(std::memory_order_relaxed));
  });
  reg.gauge("net.reconnects", [this] {
    return static_cast<double>(
        counters_.reconnects.load(std::memory_order_relaxed));
  });
}

}  // namespace ffsva::node
