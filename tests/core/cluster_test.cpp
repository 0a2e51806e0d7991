#include "core/cluster.hpp"

#include <gtest/gtest.h>

#include "core/pipeline.hpp"

namespace ffsva::core {
namespace {

/// Default queue thresholds; admission uses AdmissionOptions' defaults
/// (140 FPS sustained over 5 s).
FfsVaConfig cfg() { return FfsVaConfig{}; }

/// Feed `fps` worth of service reports over [t0, t1] at 10 Hz.
void feed(ClusterManager& cm, int id, double t0, double t1, double fps) {
  for (double t = t0; t <= t1; t += 0.1) {
    cm.report_tyolo_service(id, t, static_cast<int>(fps * 0.1));
  }
}

TEST(ClusterManager, RejectsEmptyCluster) {
  EXPECT_THROW(ClusterManager(0, cfg()), std::invalid_argument);
}

TEST(ClusterManager, StreamMembership) {
  ClusterManager cm(2, cfg());
  cm.attach_stream(7, 0);
  cm.attach_stream(8, 1);
  cm.attach_stream(9, 1);
  EXPECT_EQ(cm.instance_of(7), 0);
  EXPECT_EQ(cm.stream_count(1), 2);
  cm.attach_stream(7, 1);  // move
  EXPECT_EQ(cm.instance_of(7), 1);
  EXPECT_EQ(cm.stream_count(0), 0);
  cm.detach_stream(7);
  EXPECT_EQ(cm.instance_of(7), -1);
  EXPECT_EQ(cm.stream_count(1), 2);
}

TEST(ClusterManager, PlacementPrefersQuietLeastLoaded) {
  ClusterManager cm(3, cfg());
  // All instances quiet over a full window.
  for (int i = 0; i < 3; ++i) feed(cm, i, 0.0, 6.0, 10.0);
  cm.attach_stream(1, 0);
  cm.attach_stream(2, 0);
  cm.attach_stream(3, 1);
  const auto placed = cm.place_new_stream(6.0);
  ASSERT_TRUE(placed.has_value());
  EXPECT_EQ(*placed, 2);  // fewest streams
}

TEST(ClusterManager, NoPlacementWithoutEvidence) {
  ClusterManager cm(2, cfg());
  feed(cm, 0, 0.0, 1.0, 10.0);  // only 1 s of history (< window)
  feed(cm, 1, 0.0, 6.0, 200.0);  // busy
  EXPECT_FALSE(cm.place_new_stream(1.0).has_value());
}

TEST(ClusterManager, BusyInstanceIsNotSpare) {
  ClusterManager cm(1, cfg());
  feed(cm, 0, 0.0, 6.0, 200.0);  // above the 140 FPS admission threshold
  EXPECT_FALSE(cm.instance_has_spare(0, 6.0));
  EXPECT_FALSE(cm.place_new_stream(6.0).has_value());
}

TEST(ClusterManager, ReforwardMovesFromOverloadedToSpare) {
  ClusterManager cm(2, cfg());
  cm.attach_stream(10, 0);
  cm.attach_stream(11, 0);
  feed(cm, 0, 0.0, 6.0, 200.0);
  feed(cm, 1, 0.0, 6.0, 10.0);
  cm.report_queue_over_threshold(0, 6.0);  // overload signal
  const auto d = cm.next_reforward(6.0);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->from_instance, 0);
  EXPECT_EQ(d->to_instance, 1);
  EXPECT_EQ(cm.instance_of(d->stream_id), 1);
  EXPECT_EQ(cm.stream_count(0), 1);
  EXPECT_EQ(cm.stream_count(1), 1);
}

TEST(ClusterManager, NoReforwardWithoutOverload) {
  ClusterManager cm(2, cfg());
  cm.attach_stream(1, 0);
  feed(cm, 0, 0.0, 6.0, 10.0);
  feed(cm, 1, 0.0, 6.0, 10.0);
  EXPECT_FALSE(cm.next_reforward(6.0).has_value());
}

TEST(ClusterManager, NoReforwardWithoutSpareTarget) {
  ClusterManager cm(2, cfg());
  cm.attach_stream(1, 0);
  cm.attach_stream(2, 1);
  feed(cm, 0, 0.0, 6.0, 200.0);
  feed(cm, 1, 0.0, 6.0, 200.0);
  cm.report_queue_over_threshold(0, 6.0);
  EXPECT_FALSE(cm.next_reforward(6.0).has_value());
}

TEST(ClusterManager, OverloadSignalDecaysAndReforwardStops) {
  ClusterManager cm(2, cfg());
  cm.attach_stream(1, 0);
  feed(cm, 0, 0.0, 6.0, 200.0);
  feed(cm, 1, 0.0, 12.0, 10.0);
  cm.report_queue_over_threshold(0, 6.0);
  EXPECT_TRUE(cm.instance_overloaded(0, 6.5));
  EXPECT_FALSE(cm.instance_overloaded(0, 8.0));  // decayed
  EXPECT_FALSE(cm.next_reforward(8.0).has_value());
}

// --- report_snapshot: the live-engine reporting path ----------------------

/// A snapshot with `streams` streams, each having served `tyolo_in` frames,
/// with every queue at `queue_depth`.
InstanceSnapshot snap_of(int streams, std::uint64_t tyolo_in,
                         std::size_t queue_depth = 0, int quarantined = 0) {
  InstanceSnapshot snap;
  for (int i = 0; i < streams; ++i) {
    StreamSnapshot s;
    s.id = i;
    s.tyolo.in = tyolo_in;
    s.snm_queue_depth = queue_depth;
    s.tyolo_queue_depth = queue_depth;
    snap.streams.push_back(s);
  }
  snap.health.quarantined_streams = quarantined;
  snap.health.healthy_streams = streams - quarantined;
  return snap;
}

/// Feed idle (zero-delta) snapshots over [t0, t1] at 10 Hz so the instance
/// ages into demonstrated spare capacity.
void feed_idle_snapshots(ClusterManager& cm, int id, double t0, double t1) {
  for (double t = t0; t <= t1; t += 0.1) cm.report_snapshot(id, t, snap_of(1, 50));
}

TEST(ClusterManager, UnhealthySnapshotBlocksPlacement) {
  ClusterManager cm(2, cfg());
  feed_idle_snapshots(cm, 0, 0.0, 6.0);
  feed_idle_snapshots(cm, 1, 0.0, 6.0);
  cm.attach_stream(1, 1);  // instance 0 has fewer streams: default target
  ASSERT_EQ(cm.place_new_stream(6.0), std::optional<int>(0));

  // A quarantined stream in the live snapshot marks the instance unhealthy:
  // it stops receiving placements even though its rate signal looks spare.
  cm.report_snapshot(0, 6.0, snap_of(2, 50, 0, /*quarantined=*/1));
  EXPECT_FALSE(cm.instance_healthy(0));
  EXPECT_EQ(cm.place_new_stream(6.0), std::optional<int>(1));

  // Health follows the snapshots: a clean one restores eligibility.
  cm.report_snapshot(0, 6.1, snap_of(2, 50));
  EXPECT_TRUE(cm.instance_healthy(0));
  EXPECT_EQ(cm.place_new_stream(6.1), std::optional<int>(0));
}

TEST(ClusterManager, UnhealthyOnlyInstanceMeansNoPlacement) {
  ClusterManager cm(1, cfg());
  feed_idle_snapshots(cm, 0, 0.0, 6.0);
  ASSERT_TRUE(cm.place_new_stream(6.0).has_value());
  cm.report_snapshot(0, 6.0, snap_of(1, 50, 0, /*quarantined=*/1));
  EXPECT_FALSE(cm.place_new_stream(6.0).has_value());
}

TEST(ClusterManager, SetInstanceHealthIsAnOutOfBandGate) {
  ClusterManager cm(2, cfg());
  feed_idle_snapshots(cm, 0, 0.0, 6.0);
  feed_idle_snapshots(cm, 1, 0.0, 6.0);
  cm.set_instance_health(0, false);
  EXPECT_FALSE(cm.instance_healthy(0));
  EXPECT_EQ(cm.place_new_stream(6.0), std::optional<int>(1));
  cm.set_instance_health(0, true);
  EXPECT_TRUE(cm.instance_healthy(0));
}

TEST(ClusterManager, UnhealthyInstanceIsDrainedByReforward) {
  ClusterManager cm(2, cfg());
  cm.attach_stream(1, 0);
  cm.attach_stream(2, 0);
  feed_idle_snapshots(cm, 0, 0.0, 6.0);
  feed_idle_snapshots(cm, 1, 0.0, 6.0);
  // Not overloaded — queues are empty — but quarantines make it a source.
  cm.report_snapshot(0, 6.0, snap_of(2, 50, 0, /*quarantined=*/1));
  const auto d = cm.next_reforward(6.0);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->from_instance, 0);
  EXPECT_EQ(d->to_instance, 1);
}

TEST(ClusterManager, SnapshotQueueAtThresholdRaisesOverload) {
  const auto c = cfg();
  ClusterManager cm(2, c);
  cm.attach_stream(1, 0);
  feed_idle_snapshots(cm, 0, 0.0, 6.0);
  feed_idle_snapshots(cm, 1, 0.0, 6.0);
  EXPECT_FALSE(cm.instance_overloaded(0, 6.0));

  const std::size_t full = queue_plan(c, /*online=*/false).tyolo;
  InstanceSnapshot snap = snap_of(1, 60);
  snap.streams[0].tyolo_queue_depth = full;
  cm.report_snapshot(0, 6.0, snap);
  EXPECT_TRUE(cm.instance_overloaded(0, 6.0));
  const auto d = cm.next_reforward(6.0);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->from_instance, 0);
  EXPECT_EQ(d->to_instance, 1);
}

TEST(ClusterManager, SnapshotServedDeltaFeedsAdmissionRate) {
  ClusterManager cm(1, cfg());  // admit threshold: 140 fps
  // 8 streams each advancing 25 frames per 0.1 s => 2000 fps served.
  for (int k = 0; k <= 60; ++k) {
    cm.report_snapshot(0, 0.1 * k, snap_of(8, 25u * static_cast<unsigned>(k)));
  }
  EXPECT_FALSE(cm.instance_has_spare(0, 6.0));  // far above the threshold
  EXPECT_FALSE(cm.place_new_stream(6.0).has_value());
}

TEST(ClusterManager, SnapshotCounterRegressionRebaselines) {
  ClusterManager cm(1, cfg());
  cm.report_snapshot(0, 0.0, snap_of(1, 100000));
  // The instance restarted: its cumulative counter went backwards. The
  // delta must be discarded (re-baseline), not fed as a huge rate.
  cm.report_snapshot(0, 0.1, snap_of(1, 10));
  feed_idle_snapshots(cm, 0, 0.2, 6.0);
  // Checked at t=5.0 so a wrongly-fed wraparound delta (t=0.1) would still
  // sit inside the 5 s admission window and sink this below.
  EXPECT_TRUE(cm.instance_has_spare(0, 5.0));
}

TEST(ClusterManager, HandoffResetsServedBaseline) {
  ClusterManager cm(2, cfg());
  cm.attach_stream(7, 0);
  // Instance 0 idles over a full window: two resident streams, small totals.
  for (double t = 0.0; t <= 6.0; t += 0.1) {
    cm.report_snapshot(0, t, snap_of(2, 1000));
  }
  ASSERT_TRUE(cm.instance_has_spare(0, 6.0));
  // Stream 7 hands off to instance 1 and later returns carrying 100000
  // accumulated tyolo.in frames. The cumulative tyolo_served() sum jumps by
  // that history — a baseline shift, not service performed.
  cm.attach_stream(7, 1);
  cm.attach_stream(7, 0);
  InstanceSnapshot ret = snap_of(2, 1000);
  StreamSnapshot back;
  back.id = 7;
  back.tyolo.in = 100000;
  ret.streams.push_back(back);
  ++ret.health.healthy_streams;
  for (double t = 6.1; t <= 11.0; t += 0.1) cm.report_snapshot(0, t, ret);
  // Without the attach-time baseline reset the jump reads as a 100000-frame
  // burst that sits in the 5 s admission window at t=11.0 and sinks these.
  EXPECT_FALSE(cm.instance_overloaded(0, 11.0));
  EXPECT_TRUE(cm.instance_has_spare(0, 11.0));
}

TEST(ClusterManager, RepeatedReforwardDrainsOverloadedInstance) {
  ClusterManager cm(2, cfg());
  for (int s = 0; s < 4; ++s) cm.attach_stream(s, 0);
  feed(cm, 0, 0.0, 6.0, 200.0);
  feed(cm, 1, 0.0, 6.0, 10.0);
  cm.report_queue_over_threshold(0, 6.0);
  int moves = 0;
  while (cm.next_reforward(6.0 + 0.01 * moves).has_value()) {
    ++moves;
    if (moves > 10) break;
  }
  // Moves until the target no longer has fewer streams / source drains.
  EXPECT_GT(moves, 0);
  EXPECT_LE(cm.stream_count(0) - cm.stream_count(1), 1);
}

}  // namespace
}  // namespace ffsva::core
