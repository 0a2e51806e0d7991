#include "runtime/affinity.hpp"

#include <cstdlib>
#include <cstring>
#include <thread>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace ffsva::runtime {

int cpu_count() {
#if defined(__linux__)
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    const int n = CPU_COUNT(&mask);
    if (n > 0) return n;
  }
#endif
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

bool pin_current_thread(int cpu) {
  if (cpu < 0) return false;
#if defined(__linux__)
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) != 0) return false;
  // Pin to the (cpu mod population)-th *set* bit: the process mask may be
  // sparse (cgroup/taskset), so absolute CPU ids would miss it.
  const int population = CPU_COUNT(&mask);
  if (population <= 0) return false;
  int want = cpu % population;
  int chosen = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &mask) && want-- == 0) {
      chosen = c;
      break;
    }
  }
  if (chosen < 0) return false;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(chosen, &one);
  return pthread_setaffinity_np(pthread_self(), sizeof(one), &one) == 0;
#else
  return false;
#endif
}

int resolve_ingest_affinity() {
  const char* env = std::getenv("FFSVA_AFFINITY");
  if (env == nullptr || *env == '\0' || std::strcmp(env, "off") == 0 ||
      std::strcmp(env, "none") == 0) {
    return -1;
  }
  char* end = nullptr;
  const long v = std::strtol(env, &end, 10);
  if (end != env && *end == '\0' && v >= 0 && v <= 4096) return static_cast<int>(v);
  return -1;  // unparseable: disable rather than pin somewhere surprising
}

}  // namespace ffsva::runtime
