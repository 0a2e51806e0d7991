#include "sim/ffsva_sim.hpp"

#include <algorithm>
#include <cassert>

#include "core/policies.hpp"
#include "sim/engine.hpp"
#include "telemetry/export.hpp"
#include "telemetry/spans.hpp"

namespace ffsva::sim {

namespace {

struct SimFrame {
  double arrival = 0.0;
  core::FilteredAt outcome = core::FilteredAt::kNone;
};

/// Model-id space for the GPU0 switch accounting: stream i's SNM has id i,
/// the shared T-YOLO has a single id past all SNMs.
constexpr std::int64_t kTyoloModelBase = 1'000'000;

/// Trace lanes for virtual-time spans (the simulator has no real threads,
/// so resources play the role of timeline rows).
constexpr std::uint32_t kLaneGpu0 = 1;
constexpr std::uint32_t kLaneGpu1 = 2;
constexpr std::uint32_t kLaneCpu = 3;

/// The rates both simulations derive from their summed counters.
void summarize(SimResult& r) {
  const auto& t = r.total;
  const double arrived = static_cast<double>(t.prefetch.in);
  r.drop_rate =
      arrived > 0 ? static_cast<double>(t.dropped_at_ingest) / arrived : 0.0;
  r.realtime = r.drop_rate <= 0.005;
  r.throughput_fps = r.sim_time_sec > 0
                         ? static_cast<double>(t.prefetch.passed) / r.sim_time_sec
                         : 0.0;
}

struct SimStream {
  int id = 0;
  std::unique_ptr<OutcomeSource> outcomes;
  SimQueue<SimFrame> sdd_q;
  SimQueue<SimFrame> snm_q;
  SimQueue<SimFrame> tyolo_q;
  std::int64_t emitted = 0;
  bool snm_done = false;
  SimStreamStats stats;

  SimStream(int id_, std::unique_ptr<OutcomeSource> out, const core::QueuePlan& plan)
      : id(id_), outcomes(std::move(out)), sdd_q(plan.sdd), snm_q(plan.snm),
        tyolo_q(plan.tyolo) {}
};

class FfsVaSimulation {
 public:
  explicit FfsVaSimulation(const SimSetup& setup)
      : setup_(setup),
        cpu_(engine_, setup.costs.cpu_cores, "cpu"),
        gpu0_(engine_, "gpu0"),
        gpu1_(engine_, "gpu1"),
        ref_q_(core::queue_plan(setup.config, setup.online).ref),
        scheduler_(setup.config.num_tyolo),
        batcher_(setup.config.batch_policy, setup.config.batch_size,
                 setup.config.snm_queue_depth) {
    const core::QueuePlan plan = core::queue_plan(setup.config, setup.online);
    for (int i = 0; i < setup.num_streams; ++i) {
      auto outcomes =
          setup.make_outcomes
              ? setup.make_outcomes(i)
              : std::make_unique<MarkovOutcomes>(MarkovParams::for_tor(0.1),
                                                 17u + static_cast<unsigned>(i));
      streams_.push_back(std::make_unique<SimStream>(i, std::move(outcomes), plan));
      streams_.back()->tyolo_q.set_push_hook([this] { wake_tyolo(); });
    }
  }

  SimResult run() {
    for (auto& s : streams_) {
      if (setup_.online) {
        start_online_prefetch(*s);
      } else {
        offline_prefetch_next(*s);
      }
      sdd_loop(*s);
      snm_loop(*s);
    }
    ref_loop();
    wake_tyolo();
    if (setup_.metrics_sink != nullptr) {
      const double interval =
          std::max(1, setup_.metrics_interval_ms) * 1e-3;
      schedule_metrics_tick(interval, interval);
    }
    engine_.run();
    if (setup_.metrics_sink != nullptr) emit_metrics_row();  // closing state
    return collect();
  }

 private:
  // ----------------------------------------------------------- telemetry --
  /// Record one completed unit of simulated work as a span ending *now* in
  /// virtual time. No-op without a trace buffer.
  void record_span(const char* name, telemetry::Stage stage, int stream,
                   int batch, double exec_sec, std::uint32_t lane) {
    if (setup_.trace == nullptr) return;
    telemetry::Span sp;
    sp.name = name;
    sp.stage = stage;
    sp.stream = stream;
    sp.batch = batch;
    sp.t_end_us = static_cast<std::int64_t>(engine_.now() * 1e6);
    sp.t_start_us =
        sp.t_end_us - std::max<std::int64_t>(
                          1, static_cast<std::int64_t>(exec_sec * 1e6));
    sp.tid = lane;
    setup_.trace->record(sp);
  }

  /// Virtual-time sampler: the engine-exporter's JSONL schema driven by the
  /// simulation clock instead of a thread.
  void schedule_metrics_tick(double at, double interval) {
    engine_.at(at, [this, at, interval] {
      emit_metrics_row();
      if (!ref_closed_) schedule_metrics_tick(at + interval, interval);
    });
  }

  /// The engine registry's per-stream metrics (core/counters.hpp), summed
  /// over the simulated streams, plus the queue depths and SNM batch count.
  telemetry::MetricsSnapshot metrics_snapshot() const {
    telemetry::MetricsSnapshot s;
    core::for_each_metric([&](const char* name, core::Section section, auto read) {
      std::uint64_t n = 0;
      for (const auto& st : streams_) n += read(st->stats);
      if (section == core::Section::kCounter) {
        s.counters.emplace_back(name, n);
      } else {
        s.gauges.emplace_back(name, static_cast<double>(n));
      }
    });
    std::size_t q_sdd = 0, q_snm = 0, q_ty = 0;
    for (const auto& st : streams_) {
      q_sdd += st->sdd_q.depth();
      q_snm += st->snm_q.depth();
      q_ty += st->tyolo_q.depth();
    }
    s.counters.emplace_back("executor.snm_batches",
                            static_cast<std::uint64_t>(snm_batches_));
    s.gauges.emplace_back("queue.ref", static_cast<double>(ref_q_.depth()));
    s.gauges.emplace_back("queue.sdd", static_cast<double>(q_sdd));
    s.gauges.emplace_back("queue.snm", static_cast<double>(q_snm));
    s.gauges.emplace_back("queue.tyolo", static_cast<double>(q_ty));
    // Sorted by name, like a registry snapshot.
    std::sort(s.counters.begin(), s.counters.end());
    std::sort(s.gauges.begin(), s.gauges.end());
    return s;
  }

  void emit_metrics_row() {
    const double t = engine_.now();
    telemetry::MetricsSnapshot cur = metrics_snapshot();
    const double dt = t - last_metrics_t_;
    if (dt <= 0.0 && have_metrics_prev_) return;  // nothing elapsed
    *setup_.metrics_sink << telemetry::metrics_jsonl_row(
                                cur, have_metrics_prev_ ? &metrics_prev_ : nullptr,
                                t, dt, setup_.metrics_label)
                         << '\n';
    metrics_prev_ = std::move(cur);
    last_metrics_t_ = t;
    have_metrics_prev_ = true;
  }
  // ----------------------------------------------------------- prefetch --
  void start_online_prefetch(SimStream& s) {
    const double interval = 1.0 / setup_.config.online_fps;
    // Stagger stream phases slightly so arrivals don't align pathologically.
    const double phase = interval * (static_cast<double>(s.id) /
                                     std::max(1, setup_.num_streams));
    schedule_online_arrival(s, phase, interval);
  }

  void schedule_online_arrival(SimStream& s, double at, double interval) {
    engine_.at(at, [this, &s, at, interval] {
      if (s.emitted >= setup_.frames_per_stream || at > setup_.duration_sec) {
        s.sdd_q.close();
        return;
      }
      ++s.emitted;
      ++s.stats.prefetch.in;
      ++s.stats.ingest.decode_full;
      SimFrame f{engine_.now(), s.outcomes->next()};
      if (s.sdd_q.try_push(f)) {
        ++s.stats.prefetch.passed;
      } else {
        // A live camera cannot block: the frame is lost (overload signal).
        ++s.stats.dropped_at_ingest;
      }
      schedule_online_arrival(s, at + interval, interval);
    });
  }

  void offline_prefetch_next(SimStream& s) {
    if (s.emitted >= setup_.frames_per_stream) {
      s.sdd_q.close();
      return;
    }
    ++s.emitted;
    // Decode on a CPU core, then hand the frame to the SDD queue (blocking:
    // the decoder thread stalls while the pipeline is full — feedback).
    cpu_.submit(setup_.costs.decode_us * 1e-6, [this, &s] {
      record_span("decode", telemetry::Stage::kPrefetch, s.id, 0,
                  setup_.costs.decode_us * 1e-6, kLaneCpu);
      SimFrame f{engine_.now(), s.outcomes->next()};
      ++s.stats.prefetch.in;
      ++s.stats.ingest.decode_full;
      ++s.stats.prefetch.passed;
      s.sdd_q.push_wait(f, [this, &s] { offline_prefetch_next(s); });
    });
  }

  // ---------------------------------------------------------------- SDD --
  void sdd_loop(SimStream& s) {
    s.sdd_q.pop_wait([this, &s](std::optional<SimFrame> f) {
      if (!f) {
        s.snm_q.close();
        return;
      }
      ++s.stats.sdd.in;
      const double service =
          (setup_.costs.sdd.resize_us + setup_.costs.sdd.per_frame_us) * 1e-6;
      cpu_.submit(service, [this, &s, service, fr = *f] {
        record_span("sdd.filter", telemetry::Stage::kSdd, s.id, 0, service,
                    kLaneCpu);
        if (fr.outcome == core::FilteredAt::kSdd) {
          terminal(fr);
          sdd_loop(s);
        } else {
          ++s.stats.sdd.passed;
          s.snm_q.push_wait(fr, [this, &s] { sdd_loop(s); });
        }
      });
    });
  }

  // ---------------------------------------------------------------- SNM --
  void snm_loop(SimStream& s) {
    s.snm_q.wait_depth(static_cast<std::size_t>(batcher_.wait_target()),
                       [this, &s](std::size_t avail) {
      const auto decision = batcher_.next_batch(static_cast<int>(avail),
                                                s.snm_q.closed());
      if (decision.take <= 0) {
        if (s.snm_q.closed() && s.snm_q.depth() == 0) {
          s.snm_done = true;
          wake_tyolo();
          return;
        }
        // Spurious wake (e.g. closed with leftovers below target): retry.
        snm_loop(s);
        return;
      }
      auto batch = s.snm_q.pop_some(static_cast<std::size_t>(decision.take));
      snm_batches_ += 1;
      snm_batched_frames_ += static_cast<std::int64_t>(batch.size());
      const double exec_us =
          setup_.costs.snm.setup_us +
          static_cast<double>(batch.size()) *
              (setup_.costs.snm.per_frame_us + setup_.costs.snm.resize_us);
      gpu0_.submit(s.id, setup_.costs.snm.switch_ms, exec_us,
                   [this, &s, exec_us, batch = std::move(batch)]() mutable {
        record_span("snm.batch", telemetry::Stage::kSnm, s.id,
                    static_cast<int>(batch.size()), exec_us * 1e-6, kLaneGpu0);
        deliver_snm_outputs(s, std::move(batch), 0);
      });
    });
  }

  /// Push the surviving frames of a finished SNM batch into the T-YOLO
  /// queue one by one (each push may park on the bounded queue — feedback).
  void deliver_snm_outputs(SimStream& s, std::vector<SimFrame> batch, std::size_t i) {
    for (; i < batch.size(); ++i) {
      ++s.stats.snm.in;
      if (batch[i].outcome == core::FilteredAt::kSnm) {
        terminal(batch[i]);
        continue;
      }
      ++s.stats.snm.passed;
      SimFrame fr = batch[i];
      s.tyolo_q.push_wait(fr, [this, &s, batch = std::move(batch), i]() mutable {
        deliver_snm_outputs(s, std::move(batch), i + 1);
      });
      return;  // resumed by the continuation above
    }
    snm_loop(s);
  }

  // ------------------------------------------------------------- T-YOLO --
  void wake_tyolo() {
    if (tyolo_busy_) return;
    std::vector<int> depths(streams_.size(), 0);
    bool any_open = false;
    for (std::size_t i = 0; i < streams_.size(); ++i) {
      depths[i] = static_cast<int>(streams_[i]->tyolo_q.depth());
      if (!streams_[i]->snm_done || depths[i] > 0) any_open = true;
    }
    const auto pick = scheduler_.next(depths);
    if (pick.stream < 0) {
      if (!any_open && !ref_closed_) {
        ref_closed_ = true;
        ref_q_.close();
      }
      return;  // push hooks / snm_done will wake us again
    }
    SimStream& s = *streams_[static_cast<std::size_t>(pick.stream)];
    // Mark busy BEFORE popping: pop_some admits parked producers, whose
    // push hook re-enters wake_tyolo — the guard above must already hold.
    tyolo_busy_ = true;
    auto batch = s.tyolo_q.pop_some(static_cast<std::size_t>(pick.take));
    assert(!batch.empty());
    const double exec_us =
        setup_.costs.tyolo.setup_us +
        static_cast<double>(batch.size()) *
            (setup_.costs.tyolo.per_frame_us + setup_.costs.tyolo.resize_us);
    gpu0_.submit(kTyoloModelBase, setup_.costs.tyolo.switch_ms, exec_us,
                 [this, &s, exec_us, batch = std::move(batch)]() mutable {
      record_span("tyolo.batch", telemetry::Stage::kTyolo, s.id,
                  static_cast<int>(batch.size()), exec_us * 1e-6, kLaneGpu0);
      tyolo_served_ += static_cast<std::int64_t>(batch.size());
      deliver_tyolo_outputs(s, std::move(batch), 0);
    });
  }

  void deliver_tyolo_outputs(SimStream& s, std::vector<SimFrame> batch, std::size_t i) {
    for (; i < batch.size(); ++i) {
      ++s.stats.tyolo.in;
      if (batch[i].outcome == core::FilteredAt::kTyolo) {
        terminal(batch[i]);
        continue;
      }
      ++s.stats.tyolo.passed;
      std::pair<int, SimFrame> entry{s.id, batch[i]};
      ref_q_.push_wait(entry, [this, &s, batch = std::move(batch), i]() mutable {
        deliver_tyolo_outputs(s, std::move(batch), i + 1);
      });
      return;
    }
    tyolo_busy_ = false;
    wake_tyolo();
  }

  // ---------------------------------------------------------- reference --
  void ref_loop() {
    ref_q_.pop_wait([this](std::optional<std::pair<int, SimFrame>> entry) {
      if (!entry) return;
      auto [stream_id, fr] = *entry;
      ++streams_[static_cast<std::size_t>(stream_id)]->stats.ref.in;
      const double exec_us = setup_.costs.ref.setup_us +
                             setup_.costs.ref.per_frame_us +
                             setup_.costs.ref.resize_us;
      gpu1_.submit(0, setup_.costs.ref.switch_ms, exec_us,
                   [this, stream_id, exec_us, fr] {
        record_span("ref.detect", telemetry::Stage::kRef, stream_id, 0,
                    exec_us * 1e-6, kLaneGpu1);
        SimStream& s = *streams_[static_cast<std::size_t>(stream_id)];
        ++s.stats.ref.passed;
        const double latency_ms = (engine_.now() - fr.arrival) * 1e3;
        output_latency_.add(latency_ms);
        terminal_latency_.add(latency_ms);
        s.stats.finish_time_sec = engine_.now();
        ref_loop();
      });
    });
  }

  void terminal(const SimFrame& fr) {
    terminal_latency_.add((engine_.now() - fr.arrival) * 1e3);
  }

  // -------------------------------------------------------------- result --
  SimResult collect() {
    SimResult r;
    r.sim_time_sec = engine_.now();
    for (auto& s : streams_) {
      if (s->stats.finish_time_sec == 0.0) s->stats.finish_time_sec = engine_.now();
      r.streams.push_back(s->stats);
      r.total += s->stats;
    }
    summarize(r);
    r.output_latency_ms = output_latency_;
    r.terminal_latency_ms = terminal_latency_;
    r.gpu0_utilization = gpu0_.utilization();
    r.gpu1_utilization = gpu1_.utilization();
    r.cpu_utilization = cpu_.utilization();
    r.gpu0_model_switches = gpu0_.switches();
    r.tyolo_service_fps =
        r.sim_time_sec > 0 ? static_cast<double>(tyolo_served_) / r.sim_time_sec : 0.0;
    r.mean_snm_batch = snm_batches_ > 0
                           ? static_cast<double>(snm_batched_frames_) /
                                 static_cast<double>(snm_batches_)
                           : 0.0;
    return r;
  }

  SimSetup setup_;
  SimEngine engine_;
  KServerResource cpu_;
  GpuDevice gpu0_;
  GpuDevice gpu1_;
  SimQueue<std::pair<int, SimFrame>> ref_q_;
  core::TYoloScheduler scheduler_;
  core::DynamicBatcher batcher_;
  std::vector<std::unique_ptr<SimStream>> streams_;
  bool tyolo_busy_ = false;
  bool ref_closed_ = false;
  std::int64_t tyolo_served_ = 0;
  std::int64_t snm_batches_ = 0;
  std::int64_t snm_batched_frames_ = 0;
  runtime::Histogram output_latency_;
  runtime::Histogram terminal_latency_;
  telemetry::MetricsSnapshot metrics_prev_;
  double last_metrics_t_ = 0.0;
  bool have_metrics_prev_ = false;
};

}  // namespace

SimResult simulate_ffsva(const SimSetup& setup) {
  FfsVaSimulation sim(setup);
  return sim.run();
}

SimResult simulate_baseline(const SimSetup& setup) {
  SimEngine engine;
  KServerResource cpu(engine, setup.costs.cpu_cores, "cpu");
  // YOLOv2 on both GPUs, one shared frame queue (Section 2.3: a dual-GPU
  // server analyzes up to four concurrent streams with YOLOv2).
  KServerResource gpus(engine, 2, "gpus");
  SimQueue<SimFrame> q(8);
  SimResult result;
  result.streams.resize(static_cast<std::size_t>(setup.num_streams));

  runtime::Histogram latency;
  std::uint64_t outputs = 0;
  const double per_frame_sec = (setup.costs.ref.setup_us +
                                setup.costs.ref.per_frame_us +
                                setup.costs.ref.resize_us) * 1e-6;

  // Consumer: both GPU servers drain the shared queue.
  std::function<void()> consume = [&] {
    q.pop_wait([&](std::optional<SimFrame> f) {
      if (!f) return;
      gpus.submit(per_frame_sec, [&, fr = *f] {
        ++outputs;
        latency.add((engine.now() - fr.arrival) * 1e3);
        consume();
      });
    });
  };
  consume();
  consume();  // two logical consumers, one per GPU

  // Each stream's producer re-schedules itself. The continuations live
  // here, not in the events that call them, so none owns itself and all
  // outlive engine.run() below.
  const auto n = static_cast<std::size_t>(setup.num_streams);
  std::vector<std::function<void(double)>> arrive(n);
  std::vector<std::function<void()>> produce(n);
  int open_streams = setup.num_streams;
  for (std::size_t i = 0; i < n; ++i) {
    SimStreamStats* ss = &result.streams[i];
    if (setup.online) {
      const double interval = 1.0 / setup.config.online_fps;
      const double phase = interval * (static_cast<double>(i) /
                                       std::max(1, setup.num_streams));
      arrive[i] = [&, i, interval, ss](double at) {
        engine.at(at, [&, i, interval, at, ss] {
          if (static_cast<std::int64_t>(ss->prefetch.in) >= setup.frames_per_stream ||
              at > setup.duration_sec) {
            if (--open_streams == 0) q.close();
            return;
          }
          SimFrame f{engine.now(), core::FilteredAt::kNone};
          ++ss->prefetch.in;
          if (q.try_push(f)) {
            ++ss->prefetch.passed;
          } else {
            ++ss->dropped_at_ingest;
          }
          arrive[i](at + interval);
        });
      };
      arrive[i](phase);
    } else {
      // Offline: decode then push (blocking), per stream.
      produce[i] = [&, i, ss] {
        if (static_cast<std::int64_t>(ss->prefetch.passed) >= setup.frames_per_stream) {
          if (--open_streams == 0) q.close();
          return;
        }
        cpu.submit(setup.costs.decode_us * 1e-6, [&, i, ss] {
          SimFrame f{engine.now(), core::FilteredAt::kNone};
          ++ss->prefetch.in;
          ++ss->prefetch.passed;
          q.push_wait(f, [&, i] { produce[i](); });
        });
      };
      produce[i]();
    }
  }

  engine.run();

  result.sim_time_sec = engine.now();
  for (const auto& s : result.streams) result.total += s;
  result.total.ref.passed = outputs;  // per-stream split not tracked
  summarize(result);
  result.output_latency_ms = latency;
  result.terminal_latency_ms = latency;
  result.gpu1_utilization = gpus.utilization();
  result.cpu_utilization = cpu.utilization();
  return result;
}

int max_realtime_streams(const SimSetup& base, int lo, int hi, double max_drop_rate,
                         bool baseline) {
  auto sustains = [&](int n) {
    SimSetup s = base;
    s.num_streams = n;
    const SimResult r = baseline ? simulate_baseline(s) : simulate_ffsva(s);
    return r.drop_rate <= max_drop_rate;
  };
  if (!sustains(lo)) return lo - 1;
  while (lo < hi) {
    const int mid = (lo + hi + 1) / 2;
    if (sustains(mid)) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  return lo;
}

}  // namespace ffsva::sim
