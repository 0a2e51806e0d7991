#include "common.hpp"

#include <algorithm>
#include <cstring>
#include <ctime>
#include <fstream>

#include "runtime/parallel_for.hpp"
#include "runtime/stopwatch.hpp"

namespace ffsva::bench {

Quartiles quartiles(std::vector<double> samples) {
  if (samples.empty()) return {};
  std::sort(samples.begin(), samples.end());
  const auto at = [&](double q) {
    const double pos = q * static_cast<double>(samples.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, samples.size() - 1);
    return samples[lo] + (pos - static_cast<double>(lo)) * (samples[hi] - samples[lo]);
  };
  return {at(0.25), at(0.5), at(0.75)};
}

std::vector<Series> measure(int variants, const std::function<Run(int)>& run) {
  struct Timed {
    Run run;
    double wall_ms;
    double cpu_ms;
  };
  if (variants <= 0) return {};
  (void)run(0);  // warm-up, discarded
  std::vector<std::vector<Timed>> timed(static_cast<std::size_t>(variants));
  for (int rep = 0; rep < kReps; ++rep) {
    for (int v = 0; v < variants; ++v) {
      const runtime::Stopwatch wall;
      const std::clock_t cpu0 = std::clock();
      Run r = run(v);
      const double cpu_ms = 1e3 * static_cast<double>(std::clock() - cpu0) /
                            static_cast<double>(CLOCKS_PER_SEC);
      const double wall_ms = wall.elapsed_ms();
      timed[static_cast<std::size_t>(v)].push_back({std::move(r), wall_ms, cpu_ms});
    }
  }
  std::vector<Series> out;
  for (const auto& runs : timed) {
    const auto quartiles_of = [&](const auto& field) {
      std::vector<double> v;
      for (const Timed& t : runs) v.push_back(field(t));
      return quartiles(std::move(v));
    };
    Series s;
    s.fps = quartiles_of([](const Timed& t) { return t.run.fps; });
    s.p50_ms = quartiles_of([](const Timed& t) { return t.run.p50_ms; }).median;
    s.p99_ms = quartiles_of([](const Timed& t) { return t.run.p99_ms; }).median;
    s.wall_ms = quartiles_of([](const Timed& t) { return t.wall_ms; }).median;
    s.cpu_ms = quartiles_of([](const Timed& t) { return t.cpu_ms; }).median;
    for (std::size_t k = 0; k < runs.front().run.extras.size(); ++k) {
      s.extras.emplace_back(
          runs.front().run.extras[k].first,
          quartiles_of([k](const Timed& t) { return t.run.extras[k].second; }).median);
    }
    out.push_back(std::move(s));
  }
  return out;
}

bool resolves(const Series& a, const Series& b, double budget) {
  return std::max(a.fps.iqr_rel(), b.fps.iqr_rel()) <= budget;
}

void print_series_header(const char* first_column) {
  std::printf("%-40s %11s %8s %9s %9s %9s %9s\n", first_column, "per sec",
              "IQR/med", "p50(ms)", "p99(ms)", "wall(ms)", "cpu(ms)");
  print_rule();
}

void print_series(const std::string& label, const Series& s) {
  const auto ms = [](double v) {
    char buf[16];
    if (v > 0.0) {
      std::snprintf(buf, sizeof(buf), "%.1f", v);
    } else {
      std::snprintf(buf, sizeof(buf), "-");
    }
    return std::string(buf);
  };
  std::printf("%-40s %11.1f %7.2f%% %9s %9s %9.1f %9.1f\n", label.c_str(),
              s.fps.median, 100.0 * s.fps.iqr_rel(), ms(s.p50_ms).c_str(),
              ms(s.p99_ms).c_str(), s.wall_ms, s.cpu_ms);
}

JsonReport::JsonReport(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) path_ = argv[i + 1];
  }
}

void JsonReport::add(const std::string& name, const Series& s, Extras extras) {
  if (active()) rows_.push_back({name, s, std::move(extras)});
}

namespace {
void put_number(std::ofstream& out, const char* key, double v) {
  out << '"' << key << "\": ";
  if (v > 0.0) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    out << buf;
  } else {
    out << "null";
  }
}

void put_extras(std::ofstream& out, const Extras& extras) {
  for (const auto& [key, value] : extras) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    out << ", \"" << key << "\": " << buf;
  }
}
}  // namespace

JsonReport::~JsonReport() {
  if (!active()) return;
  std::ofstream out(path_);
  if (!out) {
    std::fprintf(stderr, "warning: cannot write %s\n", path_.c_str());
    return;
  }
  const int threads = runtime::compute_parallelism();
  out << "[\n";
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    const Row& r = rows_[i];
    const Series& s = r.series;
    out << "  {\"name\": \"" << r.name << "\", ";
    put_number(out, "fps", s.fps.median);
    out << ", ";
    put_number(out, "p50_ms", s.p50_ms);
    out << ", ";
    put_number(out, "p99_ms", s.p99_ms);
    put_extras(out, {{"fps_iqr_rel", s.fps.iqr_rel()},
                     {"wall_ms", s.wall_ms},
                     {"cpu_ms", s.cpu_ms},
                     {"reps", kReps}});
    put_extras(out, s.extras);
    put_extras(out, r.extras);
    out << ", \"threads\": " << threads << "}" << (i + 1 < rows_.size() ? "," : "")
        << "\n";
  }
  out << "]\n";
  std::printf("wrote %zu series to %s\n", rows_.size(), path_.c_str());
}

CalibratedStream build_stream(video::SceneConfig base, double tor, std::uint64_t seed,
                              std::int64_t calib_frames, std::int64_t eval_frames,
                              int snm_epochs) {
  CalibratedStream s;
  s.cfg = base;
  s.cfg.tor = tor;
  s.sim = std::make_shared<video::SceneSimulator>(s.cfg, seed,
                                                  calib_frames + eval_frames);
  std::vector<video::Frame> calib;
  calib.reserve(static_cast<std::size_t>(calib_frames));
  for (std::int64_t i = 0; i < calib_frames; ++i) calib.push_back(s.sim->render(i));

  detect::SpecializeConfig sc;
  sc.target = s.cfg.target;
  sc.snm.epochs = snm_epochs;
  s.models = detect::specialize_stream(calib, sc, seed);

  s.eval_begin = calib_frames;
  s.trace = core::record_trace(*s.sim, s.models, calib_frames,
                               calib_frames + eval_frames);
  return s;
}

void print_header(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

void print_rule() {
  std::printf("----------------------------------------------------------------\n");
}

sim::SimSetup sim_setup_from(const sim::MarkovParams& params,
                             const core::FfsVaConfig& config, int streams,
                             bool online, std::int64_t frames_per_stream,
                             double duration_sec) {
  sim::SimSetup s;
  s.config = config;
  s.num_streams = streams;
  s.online = online;
  s.duration_sec = duration_sec;
  s.frames_per_stream = frames_per_stream;
  s.make_outcomes = [params](int i) {
    return std::make_unique<sim::MarkovOutcomes>(params,
                                                 0xbe5c40u + static_cast<unsigned>(i));
  };
  return s;
}

}  // namespace ffsva::bench
