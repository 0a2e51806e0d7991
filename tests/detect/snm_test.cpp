#include "detect/snm.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "runtime/parallel_for.hpp"
#include "video/profiles.hpp"

namespace ffsva::detect {
namespace {

/// Small trained SNM on a small scene, shared across tests in this file
/// (training is the expensive part).
struct TrainedSnm {
  video::SceneConfig cfg;
  std::unique_ptr<video::SceneSimulator> sim;
  std::vector<video::Frame> frames;
  std::vector<bool> labels;
  std::unique_ptr<SnmFilter> snm;
  SnmTrainReport report;

  TrainedSnm() {
    cfg = video::jackson_profile();
    cfg.width = 128;
    cfg.height = 96;
    cfg.tor = 0.4;
    sim = std::make_unique<video::SceneSimulator>(cfg, 55, 900);
    for (int i = 0; i < 700; ++i) frames.push_back(sim->render(i));
    for (const auto& f : frames) labels.push_back(f.gt.any_target(cfg.target));
    SnmConfig sc;
    sc.epochs = 6;
    snm = std::make_unique<SnmFilter>(sc, sim->background(), 7);
    report = snm->train(frames, labels);
  }
};

TrainedSnm& trained() {
  static TrainedSnm* t = new TrainedSnm();
  return *t;
}

TEST(SnmFilter, TPreFollowsFilterDegree) {
  SnmConfig cfg;
  cfg.c_low = 0.2;
  cfg.c_high = 0.8;
  cfg.filter_degree = 0.5;
  SnmFilter snm(cfg, image::Image(32, 32, 3, 80), 1);
  EXPECT_NEAR(snm.t_pre(), 0.5, 1e-12);
  snm.set_filter_degree(0.0);
  EXPECT_NEAR(snm.t_pre(), 0.2, 1e-12);
  snm.set_filter_degree(1.0);
  EXPECT_NEAR(snm.t_pre(), 0.8, 1e-12);
  snm.set_filter_degree(2.0);  // clamped
  EXPECT_NEAR(snm.t_pre(), 0.8, 1e-12);
}

TEST(SnmFilter, PredictionIsAProbability) {
  SnmFilter snm(SnmConfig{}, image::Image(32, 32, 3, 80), 2);
  const double c = snm.predict(image::Image(64, 64, 3, 90));
  EXPECT_GE(c, 0.0);
  EXPECT_LE(c, 1.0);
}

TEST(SnmFilter, BatchMatchesSingle) {
  auto& t = trained();
  std::vector<const image::Image*> batch;
  for (int i = 0; i < 5; ++i)
    batch.push_back(&t.frames[static_cast<std::size_t>(i * 7)].image);
  const auto scores = t.snm->predict_batch(batch);
  ASSERT_EQ(scores.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_NEAR(scores[static_cast<std::size_t>(i)],
                t.snm->predict(*batch[static_cast<std::size_t>(i)]), 1e-6);
  }
}

// The engine's hand-off: SDD workers prepare inputs, concurrently and from
// one shared filter, and GPU0 scores them. The scores must be the bits
// predict_batch gives, whatever the batch size or compute parallelism.
TEST(SnmFilter, ScoringPreparedInputsMatchesPredictBatchBitwise) {
  auto& t = trained();
  const int saved = runtime::compute_parallelism();
  for (const int parallelism : {1, 4}) {
    runtime::set_compute_parallelism(parallelism);
    for (const int batch : {1, 7, 16}) {
      SCOPED_TRACE(testing::Message() << "parallelism " << parallelism << ", batch "
                                      << batch);
      const auto n = static_cast<std::size_t>(batch);
      std::vector<const image::Image*> frames;
      for (std::size_t i = 0; i < n; ++i) {
        frames.push_back(&t.frames[(i * 13 + 5) % t.frames.size()].image);
      }
      const auto want = t.snm->predict_batch(frames);
      std::vector<std::vector<float>> prepared(n);
      runtime::parallel_for(0, batch, 1, [&](std::int64_t b, std::int64_t e) {
        for (auto i = static_cast<std::size_t>(b); i < static_cast<std::size_t>(e);
             ++i) {
          t.snm->prepare(*frames[i], prepared[i]);
        }
      });
      std::vector<const float*> inputs;
      for (const auto& p : prepared) inputs.push_back(p.data());
      std::vector<double> got = {-1.0};  // a stale score must not survive
      t.snm->score(inputs, got);
      ASSERT_EQ(got.size(), n);
      for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(got[i], want[i]) << i;
    }
  }
  runtime::set_compute_parallelism(saved);
}

TEST(SnmFilter, EmptyBatch) {
  auto& t = trained();
  EXPECT_TRUE(t.snm->predict_batch({}).empty());
}

TEST(SnmTraining, ReachesPaperishAccuracy) {
  auto& t = trained();
  // "Using SNM for rapid image recognition in this case can ensure the
  // accuracy to be over 95%" (Section 3.2.2).
  EXPECT_GT(t.report.val_accuracy, 0.9);
  EXPECT_GT(t.report.train_accuracy, 0.9);
  EXPECT_GT(t.report.positives, 0);
  EXPECT_GT(t.report.negatives, 0);
}

TEST(SnmTraining, ThresholdsAreOrdered) {
  auto& t = trained();
  EXPECT_GE(t.report.c_high, t.report.c_low);
  EXPECT_GE(t.report.c_low, 0.0);
  EXPECT_LE(t.report.c_high, 1.0);
}

TEST(SnmTraining, SeparatesScoresOnHeldOutFrames) {
  auto& t = trained();
  // Frames 700..900 were never seen in training.
  double pos_sum = 0, neg_sum = 0;
  int pos_n = 0, neg_n = 0;
  for (int i = 700; i < 900; ++i) {
    const auto f = t.sim->render(i);
    const double c = t.snm->predict(f.image);
    if (f.gt.any_target(t.cfg.target)) {
      pos_sum += c;
      ++pos_n;
    } else {
      neg_sum += c;
      ++neg_n;
    }
  }
  ASSERT_GT(pos_n, 5);
  ASSERT_GT(neg_n, 5);
  EXPECT_GT(pos_sum / pos_n, neg_sum / neg_n + 0.2)
      << "positive frames must score clearly higher on unseen data";
}

TEST(SnmTraining, BadInputsThrow) {
  SnmFilter snm(SnmConfig{}, image::Image(32, 32, 3, 80), 3);
  EXPECT_THROW(snm.train({}, {}), std::invalid_argument);
  std::vector<video::Frame> one(1);
  one[0].image = image::Image(32, 32, 3, 80);
  EXPECT_THROW(snm.train(one, {true, false}), std::invalid_argument);
}

TEST(SnmFilter, SaveLoadPreservesBehaviour) {
  auto& t = trained();
  std::stringstream ss;
  t.snm->save(ss);

  SnmConfig sc;
  sc.epochs = 6;
  SnmFilter restored(sc, t.sim->background(), 999);  // different init seed
  restored.load(ss);

  for (int i = 0; i < 10; ++i) {
    const auto& img = t.frames[static_cast<std::size_t>(i * 31)].image;
    EXPECT_NEAR(restored.predict(img), t.snm->predict(img), 1e-6);
  }
  EXPECT_NEAR(restored.t_pre(), t.snm->t_pre(), 1e-12);
}

TEST(SnmFilter, SetThresholdsKeepsOrdering) {
  SnmFilter snm(SnmConfig{}, image::Image(32, 32, 3, 80), 4);
  snm.set_thresholds(0.6, 0.4);  // inverted input
  snm.set_filter_degree(1.0);
  EXPECT_GE(snm.t_pre(), 0.6 - 1e-12);
}

TEST(SnmFilter, ParameterCountMatchesArchitecture) {
  SnmConfig cfg;  // conv1: 8 filters, conv2: 16 filters, input 50
  SnmFilter snm(cfg, image::Image(32, 32, 3, 80), 5);
  // conv1: 8*1*9+8 = 80; conv2: 16*8*9+16 = 1168; fc: 16*13*13 -> 1 = 2705.
  EXPECT_EQ(snm.num_parameters(), 80u + 1168u + 2705u);
}

}  // namespace
}  // namespace ffsva::detect
