#include "node/stream_spec.hpp"

#include <sstream>
#include <vector>

#include "runtime/binary_io.hpp"
#include "video/profiles.hpp"

namespace ffsva::node {

const char* to_string(Profile p) {
  switch (p) {
    case Profile::kJackson: return "jackson";
    case Profile::kCoral: return "coral";
  }
  return "?";
}

std::string StreamSpec::serialize() const {
  std::ostringstream os;
  const auto prof = static_cast<std::uint8_t>(profile);
  runtime::write_pod(os, &stream_id);
  runtime::write_pod(os, &prof);
  runtime::write_pod(os, &tor);
  runtime::write_pod(os, &seed);
  runtime::write_pod(os, &calib_frames);
  runtime::write_pod(os, &begin);
  runtime::write_pod(os, &end);
  runtime::write_pod(os, &snm_epochs);
  runtime::write_pod(os, &width);
  runtime::write_pod(os, &height);
  return std::move(os).str();
}

std::optional<StreamSpec> StreamSpec::parse(std::string_view payload) {
  std::istringstream is{std::string(payload)};
  StreamSpec s;
  std::uint8_t prof = 0;
  if (!runtime::read_pod(is, &s.stream_id) || !runtime::read_pod(is, &prof) ||
      !runtime::read_pod(is, &s.tor) || !runtime::read_pod(is, &s.seed) ||
      !runtime::read_pod(is, &s.calib_frames) ||
      !runtime::read_pod(is, &s.begin) || !runtime::read_pod(is, &s.end) ||
      !runtime::read_pod(is, &s.snm_epochs) ||
      !runtime::read_pod(is, &s.width) || !runtime::read_pod(is, &s.height)) {
    return std::nullopt;
  }
  if (prof > static_cast<std::uint8_t>(Profile::kCoral)) return std::nullopt;
  s.profile = static_cast<Profile>(prof);
  if (s.begin < s.calib_frames || s.end < s.begin) return std::nullopt;
  return s;
}

video::SceneConfig StreamSpec::scene() const {
  video::SceneConfig cfg = profile == Profile::kCoral ? video::coral_profile()
                                                      : video::jackson_profile();
  cfg = video::with_tor(std::move(cfg), tor);
  if (width > 0) cfg.width = width;
  if (height > 0) cfg.height = height;
  return cfg;
}

MaterializedStream materialize(const StreamSpec& spec) {
  const video::SceneConfig cfg = spec.scene();
  // The simulator always spans the full timeline [0, end): a resumed spec
  // (begin > calib_frames) must plan the same scene intervals as the
  // original, or the served frames would diverge from the source node's.
  auto sim = std::make_shared<const video::SceneSimulator>(
      cfg, spec.seed, static_cast<std::int64_t>(spec.end));

  std::vector<video::Frame> calib;
  calib.reserve(spec.calib_frames);
  for (std::uint32_t i = 0; i < spec.calib_frames; ++i) {
    calib.push_back(sim->render(static_cast<std::int64_t>(i),
                                static_cast<int>(spec.stream_id)));
  }
  detect::SpecializeConfig sc;
  sc.target = cfg.target;
  sc.snm.epochs = static_cast<int>(spec.snm_epochs);
  MaterializedStream m;
  m.models = detect::specialize_stream(calib, sc, spec.seed);
  m.source = std::make_unique<video::LiveSource>(
      std::move(sim), static_cast<int>(spec.stream_id),
      static_cast<std::int64_t>(spec.begin),
      static_cast<std::int64_t>(spec.end));
  return m;
}

}  // namespace ffsva::node
