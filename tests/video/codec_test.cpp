#include "video/codec.hpp"

#include <gtest/gtest.h>

#include "video/profiles.hpp"
#include "video/scene.hpp"

namespace ffsva::video {
namespace {

std::vector<Frame> make_frames(int count, double tor = 0.4) {
  SceneConfig cfg = jackson_profile();
  cfg.width = 96;
  cfg.height = 72;
  cfg.tor = tor;
  SceneSimulator sim(cfg, 5, count);
  std::vector<Frame> frames;
  for (int i = 0; i < count; ++i) frames.push_back(sim.render(i));
  return frames;
}

TEST(Codec, RoundTripIsLossless) {
  const auto frames = make_frames(40);
  const StoredVideo video = StoredVideo::encode(frames, /*keyframe_interval=*/8);
  VideoReader reader(video);
  for (const auto& expected : frames) {
    const auto got = reader.next();
    ASSERT_TRUE(got.has_value());
    ASSERT_EQ(got->image, expected.image) << "frame " << expected.index;
  }
  EXPECT_FALSE(reader.next().has_value());
}

TEST(Codec, EmptyInput) {
  const StoredVideo video = StoredVideo::encode({});
  EXPECT_EQ(video.frame_count(), 0);
  VideoReader reader(video);
  EXPECT_FALSE(reader.next().has_value());
}

TEST(Codec, SingleFrame) {
  const auto frames = make_frames(1);
  const StoredVideo video = StoredVideo::encode(frames);
  VideoReader reader(video);
  EXPECT_EQ(reader.next()->image, frames[0].image);
}

TEST(Codec, GroundTruthTravelsWithFrames) {
  const auto frames = make_frames(30, 1.0);
  const StoredVideo video = StoredVideo::encode(frames);
  VideoReader reader(video);
  for (const auto& expected : frames) {
    const auto got = reader.next();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->gt.objects.size(), expected.gt.objects.size());
    EXPECT_NEAR(got->pts_sec, expected.pts_sec, 1e-12);
    EXPECT_EQ(got->index, expected.index);
  }
}

TEST(Codec, CompressionBeatsRawOnStaticScenes) {
  // Low activity + a small deadzone to absorb sensor noise -> long zero
  // runs -> strong compression.
  const auto frames = make_frames(30, 0.0);
  const StoredVideo video = StoredVideo::encode(frames, 32, /*deadzone=*/6);
  const auto stats = video.stats();
  EXPECT_GT(stats.compression_ratio(), 2.0);
  EXPECT_EQ(stats.raw_bytes, static_cast<std::size_t>(96) * 72 * 3 * 30);
}

TEST(Codec, DeadzoneErrorIsBounded) {
  const auto frames = make_frames(24, 0.5);
  const int deadzone = 5;
  const StoredVideo video = StoredVideo::encode(frames, 8, deadzone);
  VideoReader reader(video);
  for (const auto& expected : frames) {
    const auto got = reader.next();
    ASSERT_TRUE(got.has_value());
    int worst = 0;
    for (std::size_t i = 0; i < expected.image.size_bytes(); ++i) {
      worst = std::max(worst, std::abs(static_cast<int>(expected.image.data()[i]) -
                                       static_cast<int>(got->image.data()[i])));
    }
    EXPECT_LE(worst, deadzone) << "frame " << expected.index;
  }
}

TEST(Codec, DeadzoneImprovesCompressionMonotonically) {
  const auto frames = make_frames(20, 0.3);
  double prev_ratio = 0.0;
  for (int dz : {0, 3, 8}) {
    const double ratio =
        StoredVideo::encode(frames, 16, dz).stats().compression_ratio();
    EXPECT_GE(ratio, prev_ratio);
    prev_ratio = ratio;
  }
  EXPECT_GT(prev_ratio, 1.5);
}

TEST(Codec, BusyScenesCompressWorseThanStatic) {
  const auto still = StoredVideo::encode(make_frames(20, 0.0)).stats();
  const auto busy = StoredVideo::encode(make_frames(20, 1.0)).stats();
  EXPECT_GT(still.compression_ratio(), busy.compression_ratio());
}

TEST(Codec, SeekToKeyframe) {
  const auto frames = make_frames(40);
  const StoredVideo video = StoredVideo::encode(frames, 8);
  VideoReader reader(video);
  reader.seek(16);  // a keyframe
  EXPECT_EQ(reader.next()->image, frames[16].image);
}

TEST(Codec, SeekMidGop) {
  const auto frames = make_frames(40);
  const StoredVideo video = StoredVideo::encode(frames, 8);
  VideoReader reader(video);
  reader.seek(13);  // inside GOP [8, 16)
  EXPECT_EQ(reader.next()->image, frames[13].image);
  EXPECT_EQ(reader.next()->image, frames[14].image);
}

TEST(Codec, SeekBackwards) {
  const auto frames = make_frames(30);
  const StoredVideo video = StoredVideo::encode(frames, 8);
  VideoReader reader(video);
  for (int i = 0; i < 20; ++i) reader.next();
  reader.seek(3);
  EXPECT_EQ(reader.next()->image, frames[3].image);
}

TEST(Codec, SeekOutOfRangeThrows) {
  const auto frames = make_frames(10);
  const StoredVideo video = StoredVideo::encode(frames);
  VideoReader reader(video);
  EXPECT_THROW(reader.seek(10), std::out_of_range);
  EXPECT_THROW(reader.seek(-1), std::out_of_range);
}

TEST(Codec, KeyframeIntervalOneIsAllKeyframes) {
  const auto frames = make_frames(12);
  const StoredVideo video = StoredVideo::encode(frames, 1);
  VideoReader reader(video);
  reader.seek(7);
  EXPECT_EQ(reader.next()->image, frames[7].image);
}

TEST(Codec, MixedShapesRejected) {
  auto frames = make_frames(3);
  frames.push_back(Frame{image::Image(10, 10, 3), 0, 3, 0.1, {}});
  EXPECT_THROW(StoredVideo::encode(frames), std::invalid_argument);
}

TEST(Codec, TwoReadersAreIndependent) {
  const auto frames = make_frames(20);
  const StoredVideo video = StoredVideo::encode(frames, 4);
  VideoReader r1(video, 1), r2(video, 2);
  r1.next();
  r1.next();
  const auto f2 = r2.next();
  ASSERT_TRUE(f2.has_value());
  EXPECT_EQ(f2->image, frames[0].image);
  EXPECT_EQ(f2->stream_id, 2);
  EXPECT_EQ(r1.next()->image, frames[2].image);
}

}  // namespace
}  // namespace ffsva::video
