#include "core/cluster.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/pipeline.hpp"

namespace ffsva::core {

using runtime::MutexLock;

ClusterManager::ClusterManager(int num_instances, const FfsVaConfig& config,
                               AdmissionOptions admission)
    : num_instances_(num_instances), config_(config) {
  if (num_instances < 1) throw std::invalid_argument("cluster needs >= 1 instance");
  MutexLock lk(mu_);
  instances_.reserve(static_cast<std::size_t>(num_instances));
  for (int i = 0; i < num_instances; ++i) instances_.emplace_back(admission);
}

void ClusterManager::report_tyolo_service(int id, double now_sec, int frames) {
  MutexLock lk(mu_);
  instances_.at(static_cast<std::size_t>(id))
      .admission.on_tyolo_served(now_sec, frames);
}

void ClusterManager::report_queue_over_threshold(int id, double now_sec) {
  MutexLock lk(mu_);
  instances_.at(static_cast<std::size_t>(id))
      .admission.on_queue_over_threshold(now_sec);
}

void ClusterManager::report_snapshot(int id, double now_sec,
                                     const InstanceSnapshot& snap) {
  MutexLock lk(mu_);
  auto& inst = instances_.at(static_cast<std::size_t>(id));

  // T-YOLO service rate from the cumulative counter's delta. A counter that
  // went backwards means the instance restarted — re-baseline without
  // feeding a bogus (huge or negative) delta into the window.
  const std::uint64_t served = snap.tyolo_served();
  if (inst.have_baseline && served >= inst.last_tyolo_served) {
    const std::uint64_t delta = served - inst.last_tyolo_served;
    // A zero delta is still an observation: an idle instance must age into
    // "spare" (has_spare_capacity requires a full observed window).
    inst.admission.on_tyolo_served(
        now_sec, static_cast<int>(std::min<std::uint64_t>(delta, 1u << 30)));
  }
  inst.last_tyolo_served = served;
  inst.have_baseline = true;

  // Section 4.3.1: "when any queue of T-YOLO or SNM is longer than its
  // predefined threshold ... the instance overloads". The engine's queues
  // are bounded at exactly these thresholds, so full == over-threshold.
  const QueuePlan plan = queue_plan(config_, false);
  for (const auto& s : snap.streams) {
    if (s.snm_queue_depth >= plan.snm || s.tyolo_queue_depth >= plan.tyolo) {
      inst.admission.on_queue_over_threshold(now_sec);
      break;
    }
  }

  inst.healthy = snap.health.quarantined_streams == 0;
}

bool ClusterManager::instance_healthy(int id) const {
  MutexLock lk(mu_);
  return instances_.at(static_cast<std::size_t>(id)).healthy;
}

void ClusterManager::set_instance_health(int id, bool healthy) {
  MutexLock lk(mu_);
  instances_.at(static_cast<std::size_t>(id)).healthy = healthy;
}

void ClusterManager::attach_stream(int stream_id, int instance_id) {
  MutexLock lk(mu_);
  attach_stream_locked(stream_id, instance_id);
}

void ClusterManager::detach_stream(int stream_id) {
  MutexLock lk(mu_);
  detach_stream_locked(stream_id);
}

void ClusterManager::attach_stream_locked(int stream_id, int instance_id) {
  detach_stream_locked(stream_id);
  auto& inst = instances_.at(static_cast<std::size_t>(instance_id));
  inst.streams.push_back(stream_id);
  stream_home_[stream_id] = instance_id;
  // Membership changed: the instance's cumulative tyolo_served() sums over
  // its *current* streams, so a stream arriving with history shifts the
  // counter by that stream's accumulated tyolo.in. Without a reset the next
  // snapshot's delta is inflated by the whole history (and a departure that
  // later returns can push the delta negative, silently clamped) — so the
  // served-delta baseline restarts at the next report_snapshot.
  inst.have_baseline = false;
}

void ClusterManager::detach_stream_locked(int stream_id) {
  const auto it = stream_home_.find(stream_id);
  if (it == stream_home_.end()) return;
  auto& inst = instances_.at(static_cast<std::size_t>(it->second));
  auto& v = inst.streams;
  v.erase(std::remove(v.begin(), v.end(), stream_id), v.end());
  stream_home_.erase(it);
  // Same baseline reset as attach: the departing stream takes its
  // accumulated tyolo.in out of the instance's cumulative counter.
  inst.have_baseline = false;
}

int ClusterManager::instance_of(int stream_id) const {
  MutexLock lk(mu_);
  const auto it = stream_home_.find(stream_id);
  return it == stream_home_.end() ? -1 : it->second;
}

int ClusterManager::stream_count(int instance_id) const {
  MutexLock lk(mu_);
  return stream_count_locked(instance_id);
}

int ClusterManager::stream_count_locked(int instance_id) const {
  return static_cast<int>(
      instances_.at(static_cast<std::size_t>(instance_id)).streams.size());
}

bool ClusterManager::instance_overloaded(int id, double now_sec) const {
  MutexLock lk(mu_);
  return overloaded_locked(id, now_sec);
}

bool ClusterManager::overloaded_locked(int id, double now_sec) const {
  return instances_.at(static_cast<std::size_t>(id)).admission.overloaded(now_sec);
}

bool ClusterManager::instance_has_spare(int id, double now_sec) {
  MutexLock lk(mu_);
  return has_spare_locked(id, now_sec);
}

bool ClusterManager::has_spare_locked(int id, double now_sec) {
  auto& inst = instances_.at(static_cast<std::size_t>(id));
  return inst.healthy && !inst.admission.overloaded(now_sec) &&
         inst.admission.has_spare_capacity(now_sec);
}

std::optional<int> ClusterManager::place_new_stream(double now_sec) {
  MutexLock lk(mu_);
  int best = -1;
  for (int i = 0; i < num_instances(); ++i) {
    if (!has_spare_locked(i, now_sec)) continue;
    if (best < 0 || stream_count_locked(i) < stream_count_locked(best)) best = i;
  }
  if (best < 0) return std::nullopt;
  return best;
}

std::optional<ReforwardDecision> ClusterManager::next_reforward(double now_sec) {
  MutexLock lk(mu_);
  // Find the most-loaded instance needing relief — overloaded queues, or
  // unhealthy (quarantines): a sick instance is drained even while its
  // queues look fine — and a spare, healthy target.
  int from = -1;
  for (int i = 0; i < num_instances(); ++i) {
    if (!overloaded_locked(i, now_sec) &&
        instances_.at(static_cast<std::size_t>(i)).healthy) {
      continue;
    }
    if (stream_count_locked(i) == 0) continue;
    if (from < 0 || stream_count_locked(i) > stream_count_locked(from)) from = i;
  }
  if (from < 0) return std::nullopt;
  int to = -1;
  for (int i = 0; i < num_instances(); ++i) {
    if (i == from || !has_spare_locked(i, now_sec)) continue;
    if (to < 0 || stream_count_locked(i) < stream_count_locked(to)) to = i;
  }
  if (to < 0) return std::nullopt;

  ReforwardDecision d;
  d.from_instance = from;
  d.to_instance = to;
  d.stream_id = instances_[static_cast<std::size_t>(from)].streams.back();
  attach_stream_locked(d.stream_id, to);
  return d;
}

}  // namespace ffsva::core
