#include "detect/specialize.hpp"

#include <algorithm>
#include <stdexcept>

#include "image/ops.hpp"

namespace ffsva::detect {

StreamModels specialize_stream(const std::vector<video::Frame>& calibration_frames,
                               const SpecializeConfig& config, std::uint64_t seed) {
  if (calibration_frames.size() < 10) {
    throw std::invalid_argument("specialize_stream: need a calibration window");
  }
  StreamModels m;
  m.target = config.target;

  // 1. Background: per-pixel temporal median across the window.
  BackgroundEstimator bg(config.background_samples);
  const std::size_t stride =
      std::max<std::size_t>(1, calibration_frames.size() /
                                   static_cast<std::size_t>(config.background_samples));
  for (std::size_t i = 0; i < calibration_frames.size(); i += stride) {
    bg.add(calibration_frames[i].image);
  }
  m.background = bg.estimate();

  // 2. Reference model for this viewpoint. For person streams the
  // classifier is tuned to the scene first: a probe pass with the generic
  // aspect rule finds clearly-isolated person blobs, whose median mass then
  // (a) lets merged crowd blobs be recognized as multi-person (wider aspect
  // allowance + mass-based instance counting) in both the reference model
  // and T-YOLO, and (b) scales down to T-YOLO's coarse input. This mirrors
  // the paper's per-stream specialization: thresholds are selected per
  // camera from labeled data (Section 4.1).
  ReferenceConfig ref_cfg = config.reference;
  TYoloConfig tyolo_cfg = config.tyolo;
  if (config.target == video::ObjectClass::kPerson) {
    const ReferenceDetector probe(config.reference, m.background);
    std::vector<int> singleton_areas;
    const std::size_t probe_stride =
        std::max<std::size_t>(1, calibration_frames.size() / 200);
    for (std::size_t i = 0; i < calibration_frames.size(); i += probe_stride) {
      for (const auto& d : probe.detect(calibration_frames[i].image).detections) {
        const double aspect =
            static_cast<double>(d.box.width()) / std::max(1, d.box.height());
        if (d.cls == video::ObjectClass::kPerson && aspect <= 0.8) {
          singleton_areas.push_back(d.pixels);
        }
      }
    }
    double person_area = 120.0;  // fallback for a degenerate window
    if (!singleton_areas.empty()) {
      auto mid = singleton_areas.begin() +
                 static_cast<std::ptrdiff_t>(singleton_areas.size() / 2);
      std::nth_element(singleton_areas.begin(), mid, singleton_areas.end());
      person_area = *mid;
    }
    ref_cfg.classifier.person_max_aspect = 2.2;
    ref_cfg.classifier.person_split_area = person_area;
    ref_cfg.classifier.person_wide_min_area = 1.2 * person_area;

    // Measure the coarse-resolution singleton mass directly at T-YOLO's own
    // input size and segmentation: downscaling and blur change blob mass
    // non-linearly, so an analytic area rescale systematically mis-counts.
    std::vector<int> coarse_areas;
    {
      const int in = tyolo_cfg.input_size;
      const image::Image bg_small = image::resize_bilinear(m.background, in, in);
      for (std::size_t i = 0; i < calibration_frames.size(); i += probe_stride) {
        const image::Image frame_small =
            image::resize_bilinear(calibration_frames[i].image, in, in);
        for (const auto& comp :
             foreground_components(frame_small, bg_small, tyolo_cfg.segmentation)) {
          const double aspect = static_cast<double>(comp.box.width()) /
                                std::max(1, comp.box.height());
          if (aspect <= 0.8) coarse_areas.push_back(comp.pixel_count);
        }
      }
    }
    double coarse_person_area = std::max(
        4.0, person_area * (static_cast<double>(tyolo_cfg.input_size) *
                            tyolo_cfg.input_size) /
                 (static_cast<double>(calibration_frames.front().image.width()) *
                  calibration_frames.front().image.height()));
    if (!coarse_areas.empty()) {
      auto mid = coarse_areas.begin() +
                 static_cast<std::ptrdiff_t>(coarse_areas.size() / 2);
      std::nth_element(coarse_areas.begin(), mid, coarse_areas.end());
      coarse_person_area = std::max(4.0, static_cast<double>(*mid));
    }
    tyolo_cfg.classifier.person_max_aspect = 2.2;
    tyolo_cfg.classifier.person_split_area = coarse_person_area;
    tyolo_cfg.classifier.person_wide_min_area = 1.2 * coarse_person_area;
  } else {
    // Car/bus stream: narrow blobs are pedestrian distractors. The
    // full-resolution reference model keeps a tighter person rule (a
    // partially visible vehicle at a stop line reads as a squarish blob the
    // way YOLOv2 still recognizes as a vehicle), while coarse T-YOLO keeps
    // the generic rule — which is exactly the fidelity gap behind the
    // paper's long false-negative runs (Section 5.3.3, Table 2).
    ref_cfg.classifier.person_max_aspect = 0.70;
    tyolo_cfg.classifier.person_max_aspect = 0.8;
  }

  m.reference = std::make_shared<ReferenceDetector>(ref_cfg, m.background);
  std::vector<bool> labels;
  labels.reserve(calibration_frames.size());
  int positives = 0;
  for (const auto& f : calibration_frames) {
    const bool has = m.reference->detect(f.image).any_target(
        config.target, ref_cfg.confidence_threshold);
    labels.push_back(has);
    positives += has ? 1 : 0;
  }
  m.label_positive_rate =
      static_cast<double>(positives) / static_cast<double>(calibration_frames.size());

  // 3. SDD: distances against the background, threshold from the labels.
  m.sdd = std::make_shared<SddFilter>(config.sdd, m.background);
  {
    std::vector<double> distances;
    distances.reserve(calibration_frames.size());
    for (const auto& f : calibration_frames)
      distances.push_back(m.sdd->distance(f.image));
    m.sdd_delta = m.sdd->calibrate(distances, labels);
  }

  // 4. SNM: train the 3-layer CNN on (frame, label); thresholds selected on
  // the held-out split inside train().
  m.snm = std::make_shared<SnmFilter>(config.snm, m.background, seed);
  m.snm_report = m.snm->train(calibration_frames, labels);

  // 5. T-YOLO view of this stream (shared executable, per-stream scene).
  m.tyolo = std::make_shared<TYoloDetector>(tyolo_cfg, m.background);

  return m;
}

}  // namespace ffsva::detect
