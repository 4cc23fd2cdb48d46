#include "host.h"

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench_util.h"
#include "common/vecmath.h"
#include "core/batch_runner.h"

namespace perfbench {

namespace {

std::string FirstLine(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

// Size of the cache at `level` (2 or 3) as sysfs prints it, e.g. "2048K".
std::string CacheSize(int level) {
  for (int index = 0; index < 8; ++index) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index);
    if (FirstLine(dir + "/level") == std::to_string(level)) {
      return FirstLine(dir + "/size");
    }
  }
  return "unknown";
}

const char* KernelModeName(svt::BatchKernelMode mode) {
  return mode == svt::BatchKernelMode::kMegakernel ? "megakernel"
                                                   : "composition";
}

}  // namespace

std::string HostRecordJson() {
  std::ostringstream o;
  o << "{\"cpu\": \"" << JsonEscape(CpuModel()) << "\""
    << ", \"nproc\": " << std::thread::hardware_concurrency()
    << ", \"l2\": \"" << CacheSize(2) << "\""
    << ", \"l3\": \"" << CacheSize(3) << "\""
    << ", \"thp\": \""
    << JsonEscape(
           FirstLine("/sys/kernel/mm/transparent_hugepage/enabled"))
    << "\""
    << ", \"compiler\": \"" << JsonEscape(__VERSION__) << "\""
    << ", \"dispatch\": \""
    << svt::vec::DispatchLevelName(svt::vec::ActiveDispatchLevel()) << "\""
    << ", \"batch_kernels\": \""
    << KernelModeName(svt::ActiveBatchKernelMode()) << "\"}";
  return o.str();
}

std::string ForbiddenEnvironment() {
  for (const char* name : {"SVT_FORCE_SCALAR", "SVT_MAX_DISPATCH",
                           "SVT_BATCH_KERNELS", "SVT_BOUND_PREFILTER"}) {
    if (std::getenv(name) != nullptr) return name;
  }
  return "";
}

}  // namespace perfbench
