#include "video/source.hpp"

#include <gtest/gtest.h>

#include "video/profiles.hpp"

namespace ffsva::video {
namespace {

std::shared_ptr<SceneSimulator> small_sim(int frames) {
  SceneConfig cfg = jackson_profile();
  cfg.width = 96;
  cfg.height = 72;
  cfg.tor = 0.3;
  return std::make_shared<SceneSimulator>(cfg, 9, frames);
}

TEST(LiveSource, YieldsAllFramesInOrder) {
  auto sim = small_sim(25);
  LiveSource src(sim, /*stream_id=*/3);
  EXPECT_EQ(src.total_frames(), 25);
  for (int i = 0; i < 25; ++i) {
    const auto f = src.next();
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(f->index, i);
    EXPECT_EQ(f->stream_id, 3);
  }
  EXPECT_FALSE(src.next().has_value());
}

TEST(LiveSource, MatchesDirectRendering) {
  auto sim = small_sim(10);
  LiveSource src(sim, 0);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(src.next()->image, sim->render(i).image);
  }
}

TEST(LiveSource, WindowYieldsAbsoluteIndicesThenEnds) {
  auto sim = small_sim(30);
  LiveSource src(sim, /*stream_id=*/5, /*begin=*/10, /*end=*/20);
  EXPECT_EQ(src.total_frames(), 10);
  for (int i = 10; i < 20; ++i) {
    const auto f = src.next();
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(f->index, i);
    EXPECT_EQ(f->stream_id, 5);
    EXPECT_EQ(f->image, sim->render(i).image);
  }
  EXPECT_FALSE(src.next().has_value());
}

TEST(ReplaySource, StampsEachStreamOverOneSharedWindow) {
  auto sim = small_sim(12);
  std::vector<Frame> frames;
  for (int i = 4; i < 9; ++i) frames.push_back(sim->render(i));
  const auto window = std::make_shared<const std::vector<Frame>>(std::move(frames));
  ReplaySource a(window, /*stream_id=*/1);
  ReplaySource b(window, /*stream_id=*/2);
  EXPECT_EQ(a.total_frames(), 5);
  EXPECT_EQ(b.total_frames(), 5);
  for (int i = 4; i < 9; ++i) {
    const auto fa = a.next();
    const auto fb = b.next();
    ASSERT_TRUE(fa.has_value());
    ASSERT_TRUE(fb.has_value());
    EXPECT_EQ(fa->index, i);
    EXPECT_EQ(fb->index, i);
    EXPECT_EQ(fa->stream_id, 1);
    EXPECT_EQ(fb->stream_id, 2);
    EXPECT_EQ(fa->image, fb->image);
  }
  EXPECT_FALSE(a.next().has_value());
  EXPECT_FALSE(b.next().has_value());
  EXPECT_EQ((*window)[0].stream_id, 0);  // the shared window is untouched
}

TEST(StoredSource, DecodesWhatWasEncoded) {
  auto sim = small_sim(20);
  std::vector<Frame> frames;
  for (int i = 0; i < 20; ++i) frames.push_back(sim->render(i));
  auto video = std::make_shared<StoredVideo>(StoredVideo::encode(frames, 8));
  StoredSource src(video, 7);
  for (int i = 0; i < 20; ++i) {
    const auto f = src.next();
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(f->image, frames[static_cast<std::size_t>(i)].image);
    EXPECT_EQ(f->stream_id, 7);
  }
  EXPECT_FALSE(src.next().has_value());
  EXPECT_EQ(src.total_frames(), 20);
}

TEST(Sources, MultipleLiveSourcesShareOneSimulator) {
  auto sim = small_sim(5);
  LiveSource a(sim, 0), b(sim, 1);
  // Same camera content, different stream ids.
  const auto fa = a.next();
  const auto fb = b.next();
  EXPECT_EQ(fa->image, fb->image);
  EXPECT_NE(fa->stream_id, fb->stream_id);
}

}  // namespace
}  // namespace ffsva::video
