#include "node/cluster_scheduler.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "core/pipeline.hpp"
#include "runtime/supervision.hpp"

namespace ffsva::node {

namespace {

/// Ack deadline: materializing a spec on the node (calibration render +
/// specialization) happens before the ack comes back.
constexpr int kAssignAckTimeoutMs = 120'000;
constexpr int kStopAckTimeoutMs = 15'000;

}  // namespace

double ClusterReport::handoff_p99_ms() const {
  if (handoff_ms.empty()) return 0.0;
  std::vector<double> v = handoff_ms;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(
      static_cast<double>(v.size() - 1) * 0.99);
  return v[idx];
}

const StreamOutcome* ClusterReport::outcome(std::uint32_t stream_id) const {
  for (const auto& s : streams) {
    if (s.stream_id == stream_id) return &s;
  }
  return nullptr;
}

ClusterScheduler::ClusterScheduler(std::vector<net::Endpoint> nodes,
                                   const core::FfsVaConfig& config,
                                   SchedOptions opts)
    : endpoints_(std::move(nodes)), config_(config), opts_(opts),
      manager_(static_cast<int>(endpoints_.size()), config) {
  clients_.reserve(endpoints_.size());
  for (std::size_t i = 0; i < endpoints_.size(); ++i) {
    // The scheduler identifies itself with a node_id outside the node
    // range; nodes don't currently act on it (diagnostic only).
    clients_.emplace_back(endpoints_[i], 0xFFFFu, &counters_);
  }
}

bool ClusterScheduler::connect_all() {
  const std::int64_t deadline = runtime::steady_now_ms() + 10'000;
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    while (clients_[i].get(500) == nullptr) {
      if (runtime::steady_now_ms() > deadline) {
        std::fprintf(stderr, "sched: node %zu unreachable\n", i);
        return false;
      }
    }
  }
  return true;
}

bool ClusterScheduler::assign(int node, const StreamSpec& spec, bool resume) {
  net::Channel* ch = clients_[static_cast<std::size_t>(node)].get(2000);
  if (ch == nullptr) return false;
  AssignStream msg;
  msg.spec = spec;
  msg.resume = resume;
  if (!ch->send(net::MsgType::kAssignStream, msg.serialize())) return false;
  const std::int64_t deadline = runtime::steady_now_ms() + kAssignAckTimeoutMs;
  while (runtime::steady_now_ms() < deadline) {
    const auto frame = ch->recv(100);
    if (!frame) {
      if (!ch->connected()) return false;
      continue;
    }
    if (frame->type == net::MsgType::kAssignAck) {
      const auto ack = AssignAck::parse(frame->payload);
      if (ack && ack->stream_id == spec.stream_id) return ack->ok;
      continue;
    }
    dispatch(node, *frame);  // results/ended from other streams keep flowing
  }
  return false;
}

void ClusterScheduler::start_migration(std::uint32_t stream_id, int target) {
  auto it = streams_.find(stream_id);
  if (it == streams_.end()) return;
  StreamState& st = it->second;
  if (st.done || st.draining || st.node < 0 || st.node == target) return;
  net::Channel* ch = clients_[static_cast<std::size_t>(st.node)].get(2000);
  if (ch == nullptr) return;
  EndStream end;
  end.stream_id = stream_id;
  if (!ch->send(net::MsgType::kEndStream, end.serialize())) return;
  st.draining = true;
  st.pending_target = target;
  st.drain_t0_ms = runtime::steady_now_ms();
  if (opts_.verbose) {
    std::fprintf(stderr, "sched: migrating stream %u: node %d -> %d\n",
                 stream_id, st.node, target);
  }
}

void ClusterScheduler::force_migration() {
  // Only a stream with frames left can be handed off: one whose segment is
  // already ingested ends on its own before the drain lands.
  bool due = false;
  std::uint32_t pick = 0;
  std::uint64_t most_left = 0;
  for (const auto& [id, st] : streams_) {
    if (st.done || st.node < 0) continue;
    const std::uint64_t window = st.spec.end - st.spec.begin;
    due = due || static_cast<double>(st.ingested) >=
                     opts_.force_migration_at_fraction * static_cast<double>(window);
    const std::uint64_t left = window - std::min(window, st.ingested);
    if (!st.draining && left > most_left) {
      most_left = left;
      pick = id;
    }
  }
  if (!due || most_left == 0) return;
  StreamState& st = streams_[pick];
  start_migration(pick, (st.node + 1) % static_cast<int>(clients_.size()));
  if (st.draining) {
    st.forced = true;
    forced_done_ = true;
  }
}

void ClusterScheduler::dispatch(int node, const net::WireFrame& frame) {
  switch (frame.type) {
    case net::MsgType::kResults: {
      const auto res = StreamResults::parse(frame.payload);
      if (!res) return;
      auto it = streams_.find(res->stream_id);
      if (it == streams_.end()) return;
      // Merge by index: segments from different nodes are disjoint, and a
      // node retrying a lost report merely re-inserts the same indices.
      auto& emitted = it->second.outcome.emitted;
      emitted.insert(emitted.end(), res->emitted_frames.begin(),
                     res->emitted_frames.end());
      std::sort(emitted.begin(), emitted.end());
      emitted.erase(std::unique(emitted.begin(), emitted.end()),
                    emitted.end());
      return;
    }
    case net::MsgType::kStreamEnded: {
      const auto ended = StreamEnded::parse(frame.payload);
      if (ended) on_stream_ended(node, *ended);
      return;
    }
    // No default: -Wswitch must flag a new MsgType the scheduler ignores.
    // Heartbeat echoes and stray acks arriving outside their send/await
    // windows are dropped by design.
    case net::MsgType::kHello:
    case net::MsgType::kHelloAck:
    case net::MsgType::kHelloReject:
    case net::MsgType::kHeartbeat:
    case net::MsgType::kSnapshot:
    case net::MsgType::kAssignStream:
    case net::MsgType::kAssignAck:
    case net::MsgType::kEndStream:
    case net::MsgType::kStop:
    case net::MsgType::kStopAck:
      return;
  }
  // Unknown-but-well-framed u16 values fall out of the switch and are
  // ignored (forward compat with newer peers).
}

void ClusterScheduler::on_stream_ended(int node, const StreamEnded& ended) {
  auto it = streams_.find(ended.stream_id);
  if (it == streams_.end()) return;
  StreamState& st = it->second;
  if (st.done || st.node != node) return;
  st.outcome.ingested += ended.ingested;
  const bool forced = std::exchange(st.forced, false);

  if (st.draining && st.pending_target >= 0 && ended.cursor < st.spec.end) {
    // Second half of the hand-off: queue the remainder for reassignment
    // from the top-level loop (never nested inside a channel drain).
    st.spec.begin = ended.cursor;
    st.node = -1;
    resume_queue_.push_back(ended.stream_id);
    return;
  }
  // Natural completion (or a drain that raced the stream's own end — if
  // that drain was the forced hand-off, none happened: re-arm it).
  if (forced) forced_done_ = false;
  st.done = true;
  st.node = -1;
  st.draining = false;
  st.pending_target = -1;
  manager_.detach_stream(static_cast<int>(ended.stream_id));
}

void ClusterScheduler::flush_resumes() {
  while (!resume_queue_.empty()) {
    const std::uint32_t id = resume_queue_.front();
    resume_queue_.erase(resume_queue_.begin());
    StreamState& st = streams_[id];
    const int target = st.pending_target;
    st.draining = false;
    st.pending_target = -1;
    if (assign(target, st.spec, /*resume=*/true)) {
      manager_.attach_stream(static_cast<int>(id), target);
      st.node = target;
      st.ingested = 0;
      const double ms =
          static_cast<double>(runtime::steady_now_ms() - st.drain_t0_ms);
      report_.handoff_ms.push_back(ms);
      report_.handoffs += 1;
      st.outcome.handoffs += 1;
      continue;
    }
    std::fprintf(stderr, "sched: resume of stream %u on node %d failed\n", id,
                 target);
    report_.ok = false;
    st.done = true;  // don't spin on an unplaceable stream
    manager_.detach_stream(static_cast<int>(id));
  }
}

void ClusterScheduler::poll_snapshots(double now_sec) {
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    net::Channel* ch = clients_[i].channel();
    if (ch == nullptr) continue;
    if (!ch->send(net::MsgType::kSnapshot)) continue;
    const std::int64_t deadline = runtime::steady_now_ms() + 2000;
    while (runtime::steady_now_ms() < deadline) {
      const auto frame = ch->recv(100);
      if (!frame) {
        if (!ch->connected()) break;
        continue;
      }
      if (frame->type == net::MsgType::kSnapshot) {
        const auto snap = parse_snapshot(frame->payload);
        if (snap) {
          for (const auto& ss : snap->streams) {
            const auto it = streams_.find(static_cast<std::uint32_t>(ss.id));
            if (it != streams_.end() && it->second.node == static_cast<int>(i)) {
              it->second.ingested = ss.prefetch.in;
            }
          }
          manager_.report_snapshot(static_cast<int>(i), now_sec, *snap);
          report_.snapshot_frames += 1;
        }
        break;
      }
      dispatch(static_cast<int>(i), *frame);
    }
  }
}

void ClusterScheduler::stop_all() {
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    net::Channel* ch = clients_[i].channel();
    if (ch == nullptr) continue;
    if (!ch->send(net::MsgType::kStop)) continue;
    const std::int64_t deadline = runtime::steady_now_ms() + kStopAckTimeoutMs;
    while (runtime::steady_now_ms() < deadline) {
      const auto frame = ch->recv(200);
      if (!frame) {
        if (!ch->connected()) break;
        continue;
      }
      if (frame->type == net::MsgType::kStopAck) break;
      dispatch(static_cast<int>(i), *frame);
    }
    clients_[i].reset();
  }
}

ClusterReport ClusterScheduler::run(const std::vector<StreamSpec>& specs) {
  t0_ms_ = runtime::steady_now_ms();
  report_ = ClusterReport{};
  report_.ok = true;
  const auto now_sec = [this] {
    return static_cast<double>(runtime::steady_now_ms() - t0_ms_) / 1000.0;
  };

  if (!connect_all()) {
    report_.ok = false;
    return report_;
  }

  // Initial placement: the manager's policy, with a cold-start round-robin
  // fallback (before any snapshot, every instance looks equally spare, so
  // the fallback rarely fires — it covers an all-overloaded report burst).
  int rr = 0;
  for (const StreamSpec& spec : specs) {
    StreamState st;
    st.spec = spec;
    st.outcome.stream_id = spec.stream_id;
    const auto placed = manager_.place_new_stream(now_sec());
    const int node = placed ? *placed
                            : (rr++ % static_cast<int>(clients_.size()));
    if (!assign(node, spec, /*resume=*/false)) {
      std::fprintf(stderr, "sched: assign of stream %u to node %d failed\n",
                   spec.stream_id, node);
      report_.ok = false;
      st.done = true;
    } else {
      st.node = node;
      manager_.attach_stream(static_cast<int>(spec.stream_id), node);
    }
    streams_[spec.stream_id] = std::move(st);
  }

  std::int64_t last_snap_ms = 0;
  for (;;) {
    bool all_done = true;
    for (const auto& [id, st] : streams_) all_done = all_done && st.done;
    if (all_done) break;
    if (opts_.deadline_sec > 0.0 && now_sec() > opts_.deadline_sec) {
      std::fprintf(stderr, "sched: deadline hit with streams outstanding\n");
      report_.ok = false;
      break;
    }

    // Inbound traffic: results / end-of-stream notices from every node.
    for (std::size_t i = 0; i < clients_.size(); ++i) {
      net::Channel* ch = clients_[i].get(100);
      if (ch == nullptr) continue;
      while (const auto frame = ch->recv(10)) {
        dispatch(static_cast<int>(i), *frame);
      }
    }
    flush_resumes();

    const std::int64_t now_ms = runtime::steady_now_ms();
    if (now_ms - last_snap_ms >= opts_.snapshot_interval_ms) {
      last_snap_ms = now_ms;
      poll_snapshots(now_sec());
    }

    if (opts_.force_migration_at_fraction >= 0.0 && !forced_done_) {
      force_migration();
    }

    // Gate BEFORE asking: next_reforward re-attaches the stream inside the
    // manager, so a decision we wouldn't act on must not be requested.
    if (static_cast<double>(now_ms - last_reforward_ms_) >=
        opts_.reforward_min_gap_sec * 1000.0) {
      if (const auto rf = manager_.next_reforward(now_sec())) {
        last_reforward_ms_ = now_ms;
        // The manager has already re-attached the stream to the target;
        // the physical hand-off follows asynchronously.
        start_migration(static_cast<std::uint32_t>(rf->stream_id),
                        rf->to_instance);
      }
    }
  }

  stop_all();

  report_.wall_sec = now_sec();
  for (auto& [id, st] : streams_) {
    if (!st.done) report_.ok = false;
    report_.total_emitted += st.outcome.emitted.size();
    report_.streams.push_back(std::move(st.outcome));
  }
  std::sort(report_.streams.begin(), report_.streams.end(),
            [](const StreamOutcome& a, const StreamOutcome& b) {
              return a.stream_id < b.stream_id;
            });
  return report_;
}

std::vector<StreamOutcome> run_local(const std::vector<StreamSpec>& specs,
                                     const core::FfsVaConfig& config) {
  core::FfsVaConfig cfg = config;
  cfg.max_streams = 0;  // the classic fixed-set run
  core::FfsVaInstance inst(cfg);
  for (const StreamSpec& spec : specs) {
    MaterializedStream m = materialize(spec);
    inst.add_stream(std::move(m.source), std::move(m.models));
  }
  inst.run(/*online=*/false);
  std::map<std::uint32_t, StreamOutcome> by_id;
  for (const StreamSpec& spec : specs) {
    StreamOutcome o;
    o.stream_id = spec.stream_id;
    o.ingested = spec.end - spec.begin;  // offline pacing: lossless ingest
    by_id[spec.stream_id] = std::move(o);
  }
  for (const core::OutputEvent& ev : inst.outputs()) {
    by_id[static_cast<std::uint32_t>(ev.frame.stream_id)].emitted.push_back(
        static_cast<std::uint64_t>(ev.frame.index));
  }
  std::vector<StreamOutcome> out;
  out.reserve(by_id.size());
  for (auto& [id, o] : by_id) {
    std::sort(o.emitted.begin(), o.emitted.end());
    out.push_back(std::move(o));
  }
  return out;
}

std::vector<StreamSpec> make_specs(int count, std::uint64_t frames,
                                   std::uint32_t calib, int w, int h) {
  std::vector<StreamSpec> specs;
  specs.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    StreamSpec s;
    s.stream_id = static_cast<std::uint32_t>(i);
    // A 3:1 jackson/coral mix with spread TORs: the load the two Table-1
    // workloads would put on a node, without every stream being identical.
    if (i % 4 == 3) {
      s.profile = Profile::kCoral;
      s.tor = 0.5;
    } else {
      s.profile = Profile::kJackson;
      s.tor = 0.08 + 0.04 * static_cast<double>(i % 3);
    }
    s.seed = 1000u + static_cast<std::uint64_t>(i);
    s.calib_frames = calib;
    s.begin = calib;
    s.end = calib + frames;
    s.snm_epochs = 2;
    s.width = static_cast<std::uint16_t>(w);
    s.height = static_cast<std::uint16_t>(h);
    specs.push_back(s);
  }
  return specs;
}

}  // namespace ffsva::node
