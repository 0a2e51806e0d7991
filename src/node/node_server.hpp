// relaxed-ok: the handoffs_in_/out_ tallies are monotonic telemetry counters;
// no consumer orders other memory against their loads.
// NodeServer: one cluster node — a serve-mode FfsVaInstance wrapped in the
// control-plane socket protocol (DESIGN.md §15). The node listens for a
// scheduler connection and speaks three RPCs:
//
//   * stream hand-off   kAssignStream (spec + resume cursor) → kAssignAck;
//                       materializes the spec and attaches it to the live
//                       engine. kEndStream cuts one stream's ingest; when
//                       it quiesces the node pushes kResults (the stream's
//                       per-frame verdicts) then kStreamEnded (the resume
//                       cursor) — naturally finished streams report the
//                       same way, with cursor == spec.end.
//   * snapshot exchange kSnapshot → kSnapshot carrying the engine's own
//                       InstanceSnapshot (ids translated to cluster-global),
//                       which the scheduler feeds to ClusterManager.
//   * stop              kStop stops the engine, answers kStopAck, and
//                       serve() returns.
//
// Threading: the engine runs on its own thread (FfsVaInstance::run); the
// control loop owns the listener and the single scheduler channel. A lost
// scheduler connection sends the loop back to accept() — streams keep
// serving across scheduler restarts.
#pragma once

#include <atomic>
#include <cstdint>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.hpp"
#include "net/channel.hpp"
#include "net/socket.hpp"
#include "node/protocol.hpp"
#include "node/stream_spec.hpp"
#include "runtime/annotations.hpp"

namespace ffsva::node {

struct NodeOptions {
  std::uint32_t node_id = 0;
  net::Endpoint listen = net::Endpoint::tcp("127.0.0.1", 0);
  int max_streams = 32;
  bool online = false;           ///< Engine pacing mode (run(online)).
  core::FfsVaConfig config;      ///< Base engine config (queues, workers...).
  std::string metrics_path;      ///< Optional JSONL export (node_id-stamped).
  std::string metrics_label;
};

class NodeServer {
 public:
  explicit NodeServer(NodeOptions opts);
  ~NodeServer();

  NodeServer(const NodeServer&) = delete;
  NodeServer& operator=(const NodeServer&) = delete;

  /// Bind the listener and start the engine thread. False if the endpoint
  /// cannot be bound. After start(), port() is the resolved TCP port.
  bool start();

  /// Control loop; blocks until kStop arrives or stop() is called.
  void serve();

  /// Async abort (any thread): the control loop winds down, the engine is
  /// stopped and joined.
  void stop();

  int port() const { return listener_.bound_port(); }
  net::NetCounters& counters() { return counters_; }
  /// Engine stats; valid once serve() has returned.
  const core::InstanceStats& stats() const { return stats_; }
  std::uint64_t handoffs_in() const {
    return handoffs_in_.load(std::memory_order_relaxed);
  }
  std::uint64_t handoffs_out() const {
    return handoffs_out_.load(std::memory_order_relaxed);
  }

 private:
  struct Owned {
    StreamSpec spec;
    int local_id = -1;
    bool handoff = false;  ///< kEndStream received (vs natural completion).
  };

  void handle_frame(net::Channel& ch, const net::WireFrame& frame);
  void handle_assign(net::Channel& ch, const net::WireFrame& frame);
  /// Detect quiesced streams and push their kResults + kStreamEnded.
  void poll_quiesced(net::Channel* ch);
  /// Engine snapshot with stream ids translated local → global; streams
  /// already reported (handed off / finished) are dropped from the view.
  core::InstanceSnapshot global_snapshot();
  void wire_node_metrics();

  NodeOptions opts_;
  /// The JSONL export sink (opts_.metrics_path, append mode so several
  /// nodes can share one archive). Declared before inst_ so it outlives the
  /// engine's exporter.
  std::ofstream metrics_file_;
  core::FfsVaInstance inst_;
  net::Listener listener_;
  net::NetCounters counters_;
  std::thread engine_;  // thread-ok: joined in serve()'s epilogue / stop()
  std::atomic<bool> stopping_{false};
  std::atomic<bool> engine_joined_{false};
  core::InstanceStats stats_;

  // Outermost rank in the tree: RPC handlers scope this closed before any
  // engine call or socket send, but the engine's output sink takes it from
  // the reference thread, so it must order before every engine lock.
  mutable runtime::Mutex mu_{runtime::rank::kNodeControl,
                             "node::NodeServer::mu_"};
  std::map<std::uint32_t, Owned> owned_ FFSVA_GUARDED_BY(mu_);
  std::map<int, std::uint32_t> local_to_global_ FFSVA_GUARDED_BY(mu_);
  /// Per-stream survivor indices, appended by the engine's output sink
  /// (reference thread) and harvested when the stream quiesces.
  std::map<std::uint32_t, std::vector<std::uint64_t>> emitted_
      FFSVA_GUARDED_BY(mu_);

  std::atomic<std::int64_t> streams_owned_{0};
  std::atomic<std::uint64_t> handoffs_in_{0};
  std::atomic<std::uint64_t> handoffs_out_{0};
};

}  // namespace ffsva::node
