// Property sweep: frame conservation holds in the simulator for every
// combination of batch policy, stream count, TOR and mode. Every ingested
// frame must terminate exactly once (filtered or output), and the stage
// counters must chain (the queueing network neither loses nor duplicates).
#include <gtest/gtest.h>

#include "sim/ffsva_sim.hpp"

namespace ffsva::sim {
namespace {

struct Case {
  core::BatchPolicy policy;
  int streams;
  double tor;
  bool online;
};

class ConservationSweep : public ::testing::TestWithParam<Case> {};

TEST_P(ConservationSweep, EveryFrameTerminatesExactlyOnce) {
  const Case c = GetParam();
  SimSetup s;
  s.config.batch_policy = c.policy;
  s.num_streams = c.streams;
  s.online = c.online;
  s.duration_sec = 30.0;
  s.frames_per_stream = c.online ? 100000 : 1200;
  s.make_outcomes = [&](int i) {
    return std::make_unique<MarkovOutcomes>(MarkovParams::for_tor(c.tor),
                                            3000u + static_cast<unsigned>(i));
  };
  const SimResult r = simulate_ffsva(s);

  for (const auto& st : r.streams) {
    EXPECT_EQ(st.sdd.in, st.prefetch.passed);
    EXPECT_EQ(st.snm.in, st.sdd.passed);
    EXPECT_EQ(st.tyolo.in, st.snm.passed);
    EXPECT_EQ(st.ref.in, st.tyolo.passed);
    EXPECT_EQ(st.ref.passed, st.ref.in);
  }
  EXPECT_EQ(r.terminal_latency_ms.count, r.total.prefetch.passed);
  EXPECT_EQ(r.output_latency_ms.count, r.total.ref.passed);
  if (!c.online) {
    EXPECT_EQ(r.total.dropped_at_ingest, 0u) << "offline mode must never drop";
    EXPECT_EQ(r.total.prefetch.passed, static_cast<std::uint64_t>(c.streams) * 1200);
  }
}

INSTANTIATE_TEST_SUITE_P(
    PolicyStreamsTorMode, ConservationSweep,
    ::testing::Values(
        Case{core::BatchPolicy::kStatic, 1, 0.1, false},
        Case{core::BatchPolicy::kStatic, 4, 0.5, false},
        Case{core::BatchPolicy::kStatic, 2, 0.9, true},
        Case{core::BatchPolicy::kFeedback, 1, 0.1, false},
        Case{core::BatchPolicy::kFeedback, 6, 0.3, true},
        Case{core::BatchPolicy::kFeedback, 20, 0.103, true},
        Case{core::BatchPolicy::kFeedback, 3, 1.0, false},
        Case{core::BatchPolicy::kDynamic, 1, 0.1, false},
        Case{core::BatchPolicy::kDynamic, 8, 0.2, true},
        Case{core::BatchPolicy::kDynamic, 30, 0.103, true},
        Case{core::BatchPolicy::kDynamic, 2, 0.0, false},
        Case{core::BatchPolicy::kDynamic, 5, 1.0, true}));

}  // namespace
}  // namespace ffsva::sim
