#include "detect/segmentation.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "image/ops.hpp"
#include "runtime/cancel.hpp"

namespace ffsva::detect {

void motion_map(const image::Image& frame, const image::Image& background,
                image::Image& out) {
  if (!frame.same_shape(background)) {
    throw std::invalid_argument("motion_map: frame/background shape mismatch");
  }
  out.reset(frame.width(), frame.height(), 1);
  const std::uint8_t* a = frame.data();
  const std::uint8_t* b = background.data();
  std::uint8_t* o = out.data();
  const std::size_t n = static_cast<std::size_t>(frame.width()) * frame.height();
  if (frame.channels() == 3) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint8_t* p = a + i * 3;
      const std::uint8_t* q = b + i * 3;
      const int d0 = std::abs(static_cast<int>(p[0]) - static_cast<int>(q[0]));
      const int d1 = std::abs(static_cast<int>(p[1]) - static_cast<int>(q[1]));
      const int d2 = std::abs(static_cast<int>(p[2]) - static_cast<int>(q[2]));
      o[i] = static_cast<std::uint8_t>(std::max(d0, std::max(d1, d2)));
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      o[i] = static_cast<std::uint8_t>(
          std::abs(static_cast<int>(a[i]) - static_cast<int>(b[i])));
    }
  }
}

namespace {
/// The segmentation chain's per-thread buffers: a detector may be shared
/// across threads, so they live per thread, and a warm chain at a fixed
/// frame geometry never touches the heap.
struct MaskScratch {
  image::Image motion, mask, eroded, opened;
};

/// The opened mask of foreground_mask(), in the calling thread's scratch;
/// valid until the thread's next call.
const image::Image& mask_in_scratch(const image::Image& frame,
                                    const image::Image& background,
                                    const SegmentationParams& params) {
  static thread_local MaskScratch s;
  // Cancellation boundaries between the full-resolution passes: each pass
  // is O(pixels), so a cancelled segmentation unwinds within one pass.
  motion_map(frame, background, s.motion);
  runtime::check_cancel();
  image::blur_threshold(s.motion, params.blur_sigma, params.diff_threshold, s.mask);
  runtime::check_cancel();
  if (!params.morph_open) return s.mask;
  image::erode3x3(s.mask, s.eroded);
  image::dilate3x3(s.eroded, s.opened);
  runtime::check_cancel();
  return s.opened;
}
}  // namespace

image::Image foreground_mask(const image::Image& frame, const image::Image& background,
                             const SegmentationParams& params) {
  return mask_in_scratch(frame, background, params);
}

std::vector<image::Component> foreground_components(const image::Image& frame,
                                                    const image::Image& background,
                                                    const SegmentationParams& params) {
  return image::connected_components(mask_in_scratch(frame, background, params),
                                     params.min_pixels);
}

Detection classify_component(const image::Component& comp, int frame_w, int frame_h,
                             int min_pixels, const ClassifierParams& params) {
  (void)frame_h;
  Detection d;
  d.box = comp.box;
  d.pixels = comp.pixel_count;
  const double w = comp.box.width();
  const double h = std::max(1, comp.box.height());
  const double aspect = w / h;
  const bool person_shape =
      aspect <= 0.95 ||
      (aspect <= params.person_max_aspect &&
       (params.person_wide_min_area <= 0.0 ||
        comp.pixel_count >= params.person_wide_min_area));
  if (person_shape) {
    d.cls = video::ObjectClass::kPerson;
    if (params.person_split_area > 0.0) {
      d.instances = std::clamp(
          static_cast<int>(std::lround(comp.pixel_count / params.person_split_area)), 1,
          params.max_instances_per_blob);
    }
  } else if (w >= params.bus_min_width_frac * frame_w) {
    d.cls = video::ObjectClass::kBus;
  } else {
    d.cls = video::ObjectClass::kCar;
  }
  // Confidence saturates once the blob carries twice the minimum mass; a
  // blob scraping the floor gets ~0.5.
  d.confidence = std::clamp(
      0.4 + 0.6 * static_cast<double>(comp.pixel_count) / (2.0 * min_pixels), 0.0, 1.0);
  if (d.cls != video::ObjectClass::kPerson && params.car_min_area > 0.0 &&
      comp.pixel_count < params.car_min_area) {
    const double plaus = comp.pixel_count / params.car_min_area;
    d.confidence *= plaus * plaus;
  }
  return d;
}

}  // namespace ffsva::detect
