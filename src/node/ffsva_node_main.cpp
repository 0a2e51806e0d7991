// relaxed-ok: the NetCounters byte tallies printed in the sched summary are
// monotonic telemetry; nothing orders other memory against their loads.
// ffsva_node: the multi-process scale-out binary (DESIGN.md §15).
//
//   ffsva_node serve --port 0 --node-id 0 [--uds /tmp/n0.sock]
//       One cluster node: a serve-mode engine behind the control socket.
//       With --port 0 the kernel picks the port; the resolved endpoint is
//       printed as one JSON line on stdout (the smoke harness reads it).
//
//   ffsva_node sched --node 127.0.0.1:7001 --node 127.0.0.1:7002
//              --streams 16 --frames 400 [--force-migration-at-fraction 0.25]
//              [--verify-local]
//       The cluster scheduler: places streams across the nodes, polls
//       snapshots, re-forwards under load, and reports merged results.
//       --verify-local additionally runs the same specs single-process and
//       fails unless the per-frame verdicts match bit-identically.
//
//   ffsva_node local --streams 16 --frames 400
//       The single-process reference alone (prints per-stream verdicts).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "node/cluster_scheduler.hpp"
#include "node/node_server.hpp"

namespace {

using namespace ffsva;

[[noreturn]] void usage_and_exit(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s serve [--host H] [--port P] [--uds PATH] [--node-id K]\n"
      "                [--max-streams N] [--sdd-workers W] [--online]\n"
      "                [--metrics-out PATH] [--label S]\n"
      "       %s sched --node H:P [--node H:P ...] | --uds PATH [--uds ...]\n"
      "                [--streams N] [--frames F] [--calib C]\n"
      "                [--width W] [--height H] [--snapshot-interval-ms MS]\n"
      "                [--force-migration-at-fraction F] [--deadline SEC]\n"
      "                [--verify-local] [--verbose]\n"
      "       %s local [--streams N] [--frames F] [--calib C]\n"
      "                [--width W] [--height H]\n",
      argv0, argv0, argv0);
  std::exit(2);
}

const char* need_value(int argc, char** argv, int i) {
  if (i + 1 >= argc) {
    std::fprintf(stderr, "%s: missing value for %s\n", argv[0], argv[i]);
    std::exit(2);
  }
  return argv[i + 1];
}

net::Endpoint parse_hostport(const std::string& hp) {
  const auto colon = hp.rfind(':');
  if (colon == std::string::npos) {
    std::fprintf(stderr, "bad --node endpoint (want host:port): %s\n",
                 hp.c_str());
    std::exit(2);
  }
  return net::Endpoint::tcp(hp.substr(0, colon),
                            std::atoi(hp.c_str() + colon + 1));
}

int cmd_serve(int argc, char** argv) {
  node::NodeOptions opts;
  std::string host = "127.0.0.1";
  int port = 0;
  std::string uds;
  for (int i = 2; i < argc; ++i) {
    const char* a = argv[i];
    if (!std::strcmp(a, "--host")) {
      host = need_value(argc, argv, i++);
    } else if (!std::strcmp(a, "--port")) {
      port = std::atoi(need_value(argc, argv, i++));
    } else if (!std::strcmp(a, "--uds")) {
      uds = need_value(argc, argv, i++);
    } else if (!std::strcmp(a, "--node-id")) {
      opts.node_id = static_cast<std::uint32_t>(
          std::atoi(need_value(argc, argv, i++)));
    } else if (!std::strcmp(a, "--max-streams")) {
      opts.max_streams = std::atoi(need_value(argc, argv, i++));
    } else if (!std::strcmp(a, "--sdd-workers")) {
      opts.config.sdd_workers = std::atoi(need_value(argc, argv, i++));
    } else if (!std::strcmp(a, "--online")) {
      opts.online = true;
    } else if (!std::strcmp(a, "--metrics-out")) {
      opts.metrics_path = need_value(argc, argv, i++);
    } else if (!std::strcmp(a, "--label")) {
      opts.metrics_label = need_value(argc, argv, i++);
    } else {
      usage_and_exit(argv[0]);
    }
  }
  opts.listen = uds.empty() ? net::Endpoint::tcp(host, port)
                            : net::Endpoint::uds(uds);
  const std::uint32_t node_id = opts.node_id;
  node::NodeServer server(std::move(opts));
  if (!server.start()) {
    std::fprintf(stderr, "%s: cannot bind listener\n", argv[0]);
    return 1;
  }
  // The resolved endpoint, for harnesses that asked for --port 0.
  if (uds.empty()) {
    std::printf("{\"node_id\":%u,\"port\":%d}\n", node_id, server.port());
  } else {
    std::printf("{\"node_id\":%u,\"uds\":\"%s\"}\n", node_id, uds.c_str());
  }
  std::fflush(stdout);
  server.serve();
  const auto& health = server.stats().health;
  std::fprintf(stderr,
               "ffsva_node: done (handoffs in=%llu out=%llu, quarantined=%d)\n",
               static_cast<unsigned long long>(server.handoffs_in()),
               static_cast<unsigned long long>(server.handoffs_out()),
               health.quarantined_streams);
  return 0;
}

int cmd_sched(int argc, char** argv) {
  std::vector<net::Endpoint> nodes;
  int streams = 4;
  std::uint64_t frames = 200;
  std::uint32_t calib = 20;
  int width = 96, height = 72;
  node::SchedOptions opts;
  bool verify_local = false;
  for (int i = 2; i < argc; ++i) {
    const char* a = argv[i];
    if (!std::strcmp(a, "--node")) {
      nodes.push_back(parse_hostport(need_value(argc, argv, i++)));
    } else if (!std::strcmp(a, "--uds")) {
      nodes.push_back(net::Endpoint::uds(need_value(argc, argv, i++)));
    } else if (!std::strcmp(a, "--streams")) {
      streams = std::atoi(need_value(argc, argv, i++));
    } else if (!std::strcmp(a, "--frames")) {
      frames = static_cast<std::uint64_t>(
          std::atoll(need_value(argc, argv, i++)));
    } else if (!std::strcmp(a, "--calib")) {
      calib = static_cast<std::uint32_t>(
          std::atoi(need_value(argc, argv, i++)));
    } else if (!std::strcmp(a, "--width")) {
      width = std::atoi(need_value(argc, argv, i++));
    } else if (!std::strcmp(a, "--height")) {
      height = std::atoi(need_value(argc, argv, i++));
    } else if (!std::strcmp(a, "--snapshot-interval-ms")) {
      opts.snapshot_interval_ms = std::atoi(need_value(argc, argv, i++));
    } else if (!std::strcmp(a, "--force-migration-at-fraction")) {
      opts.force_migration_at_fraction = std::atof(need_value(argc, argv, i++));
    } else if (!std::strcmp(a, "--deadline")) {
      opts.deadline_sec = std::atof(need_value(argc, argv, i++));
    } else if (!std::strcmp(a, "--verify-local")) {
      verify_local = true;
    } else if (!std::strcmp(a, "--verbose")) {
      opts.verbose = true;
    } else {
      usage_and_exit(argv[0]);
    }
  }
  if (nodes.empty()) usage_and_exit(argv[0]);

  const core::FfsVaConfig config;
  const auto specs = node::make_specs(streams, frames, calib, width, height);
  node::ClusterScheduler sched(nodes, config, opts);
  const node::ClusterReport report = sched.run(specs);

  bool verified = true;
  if (verify_local) {
    const auto local = node::run_local(specs, config);
    for (const auto& ref : local) {
      const auto* got = report.outcome(ref.stream_id);
      if (got == nullptr || got->emitted != ref.emitted) {
        verified = false;
        std::fprintf(stderr,
                     "verify: stream %u mismatch (cluster %zu vs local %zu "
                     "survivors)\n",
                     ref.stream_id, got ? got->emitted.size() : 0,
                     ref.emitted.size());
      }
    }
  }

  std::printf(
      "{\"ok\":%s,\"streams\":%d,\"nodes\":%zu,\"emitted\":%llu,"
      "\"handoffs\":%d,\"handoff_p99_ms\":%.1f,\"wall_sec\":%.2f,"
      "\"snapshot_polls\":%llu,\"bytes_tx\":%llu,\"bytes_rx\":%llu,"
      "\"verified\":%s}\n",
      report.ok ? "true" : "false", streams, nodes.size(),
      static_cast<unsigned long long>(report.total_emitted), report.handoffs,
      report.handoff_p99_ms(), report.wall_sec,
      static_cast<unsigned long long>(report.snapshot_frames),
      static_cast<unsigned long long>(
          sched.counters().bytes_tx.load(std::memory_order_relaxed)),
      static_cast<unsigned long long>(
          sched.counters().bytes_rx.load(std::memory_order_relaxed)),
      verify_local ? (verified ? "true" : "false") : "null");
  return report.ok && verified ? 0 : 1;
}

int cmd_local(int argc, char** argv) {
  int streams = 4;
  std::uint64_t frames = 200;
  std::uint32_t calib = 20;
  int width = 96, height = 72;
  for (int i = 2; i < argc; ++i) {
    const char* a = argv[i];
    if (!std::strcmp(a, "--streams")) {
      streams = std::atoi(need_value(argc, argv, i++));
    } else if (!std::strcmp(a, "--frames")) {
      frames = static_cast<std::uint64_t>(
          std::atoll(need_value(argc, argv, i++)));
    } else if (!std::strcmp(a, "--calib")) {
      calib = static_cast<std::uint32_t>(
          std::atoi(need_value(argc, argv, i++)));
    } else if (!std::strcmp(a, "--width")) {
      width = std::atoi(need_value(argc, argv, i++));
    } else if (!std::strcmp(a, "--height")) {
      height = std::atoi(need_value(argc, argv, i++));
    } else {
      usage_and_exit(argv[0]);
    }
  }
  const core::FfsVaConfig config;
  const auto specs = node::make_specs(streams, frames, calib, width, height);
  const auto local = node::run_local(specs, config);
  std::uint64_t total = 0;
  std::printf("{\"streams\":[");
  for (std::size_t i = 0; i < local.size(); ++i) {
    total += local[i].emitted.size();
    std::printf("%s{\"id\":%u,\"ingested\":%llu,\"emitted\":%zu}",
                i ? "," : "", local[i].stream_id,
                static_cast<unsigned long long>(local[i].ingested),
                local[i].emitted.size());
  }
  std::printf("],\"total_emitted\":%llu}\n",
              static_cast<unsigned long long>(total));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage_and_exit(argv[0]);
  if (!std::strcmp(argv[1], "serve")) return cmd_serve(argc, argv);
  if (!std::strcmp(argv[1], "sched")) return cmd_sched(argc, argv);
  if (!std::strcmp(argv[1], "local")) return cmd_local(argc, argv);
  usage_and_exit(argv[0]);
}
