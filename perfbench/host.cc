#include "host.h"

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <string>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "engine/kernel/kernel.h"
#include "sim/parallel.h"

namespace perfbench {
namespace {

struct CpuInfo {
  std::string model = "unknown";
  std::uint64_t l2_bytes = 0;
  std::uint64_t l3_bytes = 0;
};

CpuInfo cpu_info() {
  CpuInfo info;
#if defined(__x86_64__) || defined(__i386__)
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (__get_cpuid(0x80000000u, &a, &b, &c, &d) != 0 && a >= 0x80000004u) {
    char brand[49] = {};
    for (unsigned leaf = 0; leaf < 3; ++leaf) {
      __get_cpuid(0x80000002u + leaf, &a, &b, &c, &d);
      const unsigned regs[4] = {a, b, c, d};
      std::memcpy(brand + leaf * 16, regs, sizeof(regs));
    }
    std::string model(brand);
    const auto first = model.find_first_not_of(' ');
    if (first != std::string::npos) info.model = model.substr(first);
  }
  // Deterministic cache parameters: Intel leaf 4, AMD leaf 0x8000001D.
  unsigned max_leaf = __get_cpuid_max(0, nullptr);
  unsigned cache_leaf = max_leaf >= 4 ? 4u : 0u;
  unsigned ext_max = __get_cpuid_max(0x80000000u, nullptr);
  if (cache_leaf == 0 && ext_max >= 0x8000001Du) cache_leaf = 0x8000001Du;
  for (unsigned sub = 0; cache_leaf != 0 && sub < 16; ++sub) {
    __cpuid_count(cache_leaf, sub, a, b, c, d);
    const unsigned type = a & 0x1f;
    if (type == 0) break;
    if (type == 2) continue;  // Instruction cache.
    const unsigned level = (a >> 5) & 0x7;
    const std::uint64_t bytes = std::uint64_t{(b >> 22) + 1} *
                                (((b >> 12) & 0x3ff) + 1) * ((b & 0xfff) + 1) *
                                (std::uint64_t{c} + 1);
    if (level == 2) info.l2_bytes = bytes;
    if (level == 3) info.l3_bytes = bytes;
  }
#endif
  return info;
}

unsigned affinity_cpus() noexcept {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<unsigned>(CPU_COUNT(&set));
  }
  return 0;
}

}  // namespace

unsigned bench_threads() noexcept {
  return std::min(bitspread::host_concurrency(), 4u);
}

bitspread::JsonValue host_stamp(std::uint64_t seed) {
  const CpuInfo cpu = cpu_info();
  bitspread::JsonValue host = bitspread::JsonValue::object();
  host.set("nproc",
           static_cast<std::uint64_t>(std::max(0L, sysconf(_SC_NPROCESSORS_ONLN))));
  host.set("affinity_cpus", affinity_cpus());
  host.set("threads", bench_threads());
  host.set("cpu_model", cpu.model);
  host.set("l2_bytes", cpu.l2_bytes);
  host.set("l3_bytes", cpu.l3_bytes);
  host.set("kernel_backend", bitspread::kernel::backend_name(
                                 bitspread::kernel::resolve(
                                     bitspread::kernel::Backend::kAuto)));
  host.set("build_type", PERFBENCH_BUILD_TYPE);
  host.set("ndebug", release_build());
  host.set("seed", seed);
  return host;
}

}  // namespace perfbench
