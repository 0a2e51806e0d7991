// T-YOLO — the small, globally shared detector (paper Section 3.2.3).
//
// Tiny-YOLO-Voc "divides the input image into a 13*13 grid ... each grid
// cell predicts 5 bounding boxes and confidence scores; if the confidence
// score exceeds the threshold (e.g. 0.2), one target object is considered
// to appear". Our stand-in keeps that structure:
//
//  * the frame is downscaled to a fixed detector input (default 104x104 —
//    a 13x13 grid of 8-pixel cells),
//  * foreground blobs are segmented at that coarse resolution,
//  * each blob is assigned to the grid cell of its center; a cell reports at
//    most `boxes_per_cell` detections (surplus blobs in one cell merge),
//  * detections below `confidence_threshold` are dropped.
//
// Because detection happens after a ~3-4x downscale, small / dense / partly
// visible objects fall below the resolving power — which is precisely the
// T-YOLO-vs-YOLOv2 gap the paper's accuracy analysis attributes its false
// negatives to. The filter's job in the cascade is counting: a frame passes
// only if count(target) >= NumberofObjects (Section 4.2.2).
#pragma once

#include "detect/detection.hpp"
#include "detect/segmentation.hpp"
#include "image/image.hpp"

namespace ffsva::detect {

struct TYoloConfig {
  int input_size = 104;     ///< Detector input edge (13 cells x 8 px).
  int grid = 13;
  int boxes_per_cell = 5;
  double confidence_threshold = 0.2;
  SegmentationParams segmentation{/*blur_sigma=*/0.7, /*diff_threshold=*/28,
                                  /*min_pixels=*/10, /*morph_open=*/false};
  ClassifierParams classifier{.car_min_area = 20.0};
};

class TYoloDetector {
 public:
  /// `background`: the stream's full-resolution background; held per stream,
  /// downscaled once. (In the paper T-YOLO is one shared *model*; what is
  /// per-stream here is scene state, what stays shared is the executable —
  /// and the execution engine models exactly that sharing.)
  TYoloDetector(TYoloConfig config, const image::Image& background);

  /// The detector input: `frame` resized to input_size^2, written to
  /// `out`. Const and safe to call concurrently: its resize tables are per
  /// thread. Fires no fault hook; detect_prepared() does.
  void prepare(const image::Image& frame, image::Image& out) const;

  /// Detect on an input from prepare(), with boxes in frame coordinates.
  DetectionResult detect_prepared(const image::Image& input) const;

  /// prepare() + detect_prepared().
  DetectionResult detect(const image::Image& frame) const;

  /// The cascade predicate: does the frame carry at least
  /// `number_of_objects` detected targets?
  bool pass(const image::Image& frame, video::ObjectClass target,
            int number_of_objects) const {
    return detect(frame).count_target(target, config_.confidence_threshold) >=
           number_of_objects;
  }

  const TYoloConfig& config() const { return config_; }

 private:
  TYoloConfig config_;
  image::Image background_small_;
  double scale_x_ = 1.0, scale_y_ = 1.0;  ///< Detector -> frame coordinates.
};

}  // namespace ffsva::detect
