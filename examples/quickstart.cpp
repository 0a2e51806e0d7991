// Quickstart: specialize a stream, run the four-stage FFS-VA pipeline on a
// short clip, and print what survives the cascade.
//
//   1. Render a synthetic surveillance stream (a fixed-viewpoint traffic
//      camera) — stands in for a real camera / recording.
//   2. specialize_stream(): estimate the background, label a calibration
//      window with the reference model, calibrate the SDD threshold, train
//      the per-stream SNM, and tune T-YOLO for the scene (paper Sec. 4.1).
//   3. Feed the rest of the stream through FfsVaInstance (threads + bounded
//      feedback queues + shared T-YOLO + reference model).
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>
#include <memory>

#include "core/pipeline.hpp"
#include "video/profiles.hpp"
#include "video/source.hpp"

using namespace ffsva;

int main() {
  // --- 1. The camera -------------------------------------------------------
  video::SceneConfig cfg = video::jackson_profile();
  cfg.tor = 0.25;  // a moderately busy intersection
  auto sim = std::make_shared<video::SceneSimulator>(cfg, /*seed=*/7, /*frames=*/2000);
  std::printf("Camera: %dx%d @ %.0f FPS, target '%s', planned TOR %.2f\n",
              cfg.width, cfg.height, cfg.fps, video::to_string(cfg.target),
              sim->planned_tor());

  // --- 2. Specialization (once per camera) ---------------------------------
  std::printf("Specializing SDD + SNM on a 900-frame calibration window...\n");
  std::vector<video::Frame> calib;
  for (int i = 0; i < 900; ++i) calib.push_back(sim->render(i));
  detect::SpecializeConfig sc;
  sc.target = cfg.target;
  const auto models = detect::specialize_stream(calib, sc, /*seed=*/7);
  std::printf("  SDD delta_diff = %.1f   SNM val-accuracy = %.1f%%  "
              "[c_low %.2f, c_high %.2f]\n",
              models.sdd_delta, 100 * models.snm_report.val_accuracy,
              models.snm_report.c_low, models.snm_report.c_high);

  // --- 3. The pipeline ------------------------------------------------------
  // FilterDegree stays at the SNM's default 0.5 (models.snm).
  core::FfsVaConfig config;       // NumberofObjects 1, feedback thresholds
  config.number_of_objects = 1;   // {2,10,2}, dynamic batch
  core::FfsVaInstance instance(config);
  instance.add_stream(std::make_unique<video::LiveSource>(sim, 0, 900, 2000), models);

  std::printf("Analyzing frames 900..2000 offline...\n\n");
  const auto stats = instance.run(/*online=*/false);

  const auto& s = stats.streams[0];
  std::printf("Cascade:  %llu frames -> SDD passed %llu -> SNM passed %llu "
              "-> T-YOLO passed %llu -> reference model\n",
              (unsigned long long)s.sdd.in, (unsigned long long)s.sdd.passed,
              (unsigned long long)s.snm.passed, (unsigned long long)s.tyolo.passed);
  std::printf("The full-feature model saw only %.1f%% of all frames.\n\n",
              100.0 * static_cast<double>(s.ref.in) / static_cast<double>(s.sdd.in));

  std::printf("First surviving frames (reference-model detections):\n");
  int shown = 0;
  for (const auto& ev : instance.outputs()) {
    if (shown++ >= 8) break;
    std::printf("  frame %5lld @ %6.2fs:", (long long)ev.frame.index,
                ev.frame.pts_sec);
    for (const auto& d : ev.result.detections) {
      std::printf(" %s x%d (conf %.2f)", video::to_string(d.cls), d.instances,
                  d.confidence);
    }
    std::printf("\n");
  }
  std::printf("  ... %zu surviving frames total\n", instance.outputs().size());
  return 0;
}
