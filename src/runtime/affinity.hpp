// CPU-affinity helpers.
//
// Used by the engine to pin ingest (prefetch/decode) threads so they stop
// migrating across — and fighting with — the compute pool's cores
// (DESIGN.md §13). Affinity is a hint: on platforms without an affinity
// API, or when the requested CPU is outside the process mask, pinning
// degrades to a no-op and the engine runs exactly as before.
#pragma once

namespace ffsva::runtime {

/// CPUs available to this process (the affinity mask's population when the
/// platform exposes one, hardware_concurrency otherwise; always >= 1).
int cpu_count();

/// Pin the calling thread to the (cpu mod cpu_count())-th CPU of the
/// process's affinity mask. Returns true if the pin took effect.
bool pin_current_thread(int cpu);

/// The ingest-affinity base CPU from the FFSVA_AFFINITY environment
/// variable: stream i's prefetch thread pins to CPU (base + i) mod
/// cpu_count. Unset, empty, "off" or unparseable means no pinning (-1).
int resolve_ingest_affinity();

}  // namespace ffsva::runtime
