// Layer probes: each times one layer's public function on the workload's
// own frames, after the measured runs, so a per-layer cost can be set
// against the end-to-end figures it should move.
#pragma once

#include "workload.hpp"

namespace enginebench {

/// Wall time and process CPU time of one layer call, per frame (µs).
struct Cost {
  double wall_us = 0.0;
  double cpu_us = 0.0;
};

struct LayerProbe {
  Cost decode;         ///< video::VideoReader::next
  Cost sdd;            ///< detect::SddFilter::distance
  Cost snm_batch16;    ///< detect::SnmFilter::predict_batch, 16 frames
  Cost tyolo;          ///< detect::TYoloDetector::detect
  Cost ref_batch8;     ///< detect::ReferenceDetector::detect_batch, 8 frames
  double gemm_gflops = 0.0;               ///< nn::gemm at SNM/T-YOLO shapes
  double parallel_for_dispatch_us = 0.0;  ///< runtime::parallel_for, empty body
};

LayerProbe probe_layers(const WorkloadSpec& spec, const Inputs& in,
                        const Expected& expected);

}  // namespace enginebench
