// Foreground segmentation and blob classification — the shared machinery
// behind the two object detectors in the reproduction.
//
// Both our "T-YOLO" and our "YOLOv2" stand-ins detect by background
// differencing + connected components + size/aspect classification; what
// separates them is *fidelity*: the reference model works on the full
// frame, T-YOLO on a coarse 13x13-grid-aligned downscale. The fidelity gap
// (not any hand-coded error injection) is what produces the paper's false
// negatives: small, dense or partially-visible objects shrink below the
// coarse detector's resolving power while the full-resolution reference
// still sees them (Section 5.3).
#pragma once

#include <cstdint>
#include <vector>

#include "detect/detection.hpp"
#include "image/components.hpp"
#include "image/image.hpp"

namespace ffsva::detect {

struct SegmentationParams {
  double blur_sigma = 1.0;
  std::uint8_t diff_threshold = 26;  ///< On the max-channel |frame-bg| map.
  int min_pixels = 40;               ///< Blobs below this are noise.
  bool morph_open = true;            ///< Erode+dilate to kill speckle.
};

/// Per-pixel max-channel absolute difference into `out`: a 1-channel motion
/// map, allocation-free once `out` is warm.
void motion_map(const image::Image& frame, const image::Image& background,
                image::Image& out);

/// The opened binary foreground mask that foreground_components() labels.
image::Image foreground_mask(const image::Image& frame, const image::Image& background,
                             const SegmentationParams& params);

/// Segment the foreground of `frame` against `background`. Once the calling
/// thread has segmented a frame of this geometry, the returned list is the
/// only allocation.
std::vector<image::Component> foreground_components(const image::Image& frame,
                                                    const image::Image& background,
                                                    const SegmentationParams& params);

struct ClassifierParams {
  /// Aspect (w/h) at or below which a blob is a person.
  double person_max_aspect = 0.95;
  /// Blob width above this fraction of frame width is a bus.
  double bus_min_width_frac = 0.22;
  /// If > 0, a person-class blob is credited round(pixels / this) instances
  /// (mass-based crowd counting). Stream specialization measures the
  /// singleton person area and fills this in; 0 disables splitting.
  double person_split_area = 0.0;
  /// Cap on instances credited to one blob.
  int max_instances_per_blob = 8;
  /// A blob with aspect in (0.95, person_max_aspect] is only a person
  /// (a merged crowd) if it carries at least this mass; below it, a wide
  /// light blob is some other small moving thing. 0 = no mass requirement.
  double person_wide_min_area = 0.0;
  /// Plausible minimum mass of a vehicle blob. Car/bus detections below it
  /// have their confidence quadratically suppressed, so a low-contrast
  /// speck (a half-camouflaged pedestrian's head, sensor noise) cannot
  /// register as a vehicle. 0 disables the penalty.
  double car_min_area = 0.0;
};

/// Classify a blob by its geometry; confidence grows with blob mass.
Detection classify_component(const image::Component& comp, int frame_w, int frame_h,
                             int min_pixels, const ClassifierParams& params);

}  // namespace ffsva::detect
