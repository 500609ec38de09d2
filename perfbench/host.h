// The host stamp carried by every output of the benchmark, so rows from
// different machines (the old 1-core host, a 4-vCPU host) are never
// compared by accident.
#ifndef PERFBENCH_HOST_H_
#define PERFBENCH_HOST_H_

#include <cstdint>

#include "telemetry/json.h"

namespace perfbench {

// The worker threads every workload uses: min(usable CPUs, 4).
unsigned bench_threads() noexcept;

// nproc, the affinity mask size, CPU model, L2/L3 sizes (cpuid, so no file
// outside the checkout is read), the kernel backend kAuto resolves to, the
// build type and the seed.
bitspread::JsonValue host_stamp(std::uint64_t seed);

// The rule of the repository's bench build guard: a binary compiled
// without NDEBUG is not a Release build.
constexpr bool release_build() noexcept {
#ifdef NDEBUG
  return true;
#else
  return false;
#endif
}

}  // namespace perfbench

#endif  // PERFBENCH_HOST_H_
