// Host record printed with every result, and the guard that keeps every
// number a measurement of the default program.

#ifndef PERFBENCH_HOST_H_
#define PERFBENCH_HOST_H_

#include <string>

namespace perfbench {

/// One-line JSON object: CPU model, nproc, L2/L3 sizes, THP mode,
/// compiler, the active vecmath dispatch level and batch kernel mode.
std::string HostRecordJson();

/// Names the first set environment variable that changes which engine
/// paths run (SVT_FORCE_SCALAR, SVT_MAX_DISPATCH, SVT_BATCH_KERNELS,
/// SVT_BOUND_PREFILTER), or returns "" when none is set.
std::string ForbiddenEnvironment();

}  // namespace perfbench

#endif  // PERFBENCH_HOST_H_
