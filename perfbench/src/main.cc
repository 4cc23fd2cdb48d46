// svt_perfbench: runs one benchmark workload and prints its result.
//
//   svt_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--trace-dir <dir>]
//
// Standard output: a "host" line (the host record), "note" lines, and as
// the last line one JSON object {"correct", "attempted", "failed",
// "metrics"}. With --trace 0 the metrics are the end-to-end ones, with
// --trace 1 the per-layer ones; a metric a workload does not exercise is
// reported as 0. Exits 1 when any output check failed, 2 on bad usage.

#include <cstdlib>
#include <iostream>
#include <map>
#include <string>

#include "bench_util.h"
#include "host.h"
#include "metrics.h"
#include "workloads.h"

namespace perfbench {
namespace {

int Usage(const char* why) {
  std::cerr << "svt_perfbench: " << why
            << "\nusage: svt_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-dir <dir>]\n"
               "workloads: engine_sparse engine_near engine_perquery "
               "engine_resample paper_sweep serving_open audit_mc\n";
  return 2;
}

template <size_t N>
std::string MetricsJson(const MetricDecl (&decls)[N],
                        const std::vector<Metric>& measured) {
  std::map<std::string, double> values;
  for (const Metric& m : measured) values[m.name] = m.value;
  std::string out = "{";
  for (size_t i = 0; i < N; ++i) {
    if (i > 0) out += ", ";
    const auto it = values.find(decls[i].name);
    out += '"';
    out += decls[i].name;
    out += "\": {\"value\": ";
    out += JsonNumber(it == values.end() ? 0.0 : it->second);
    out += ", \"unit\": \"";
    out += decls[i].unit;
    out += "\"}";
  }
  return out + "}";
}

int Main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return Usage("flags come as --name value");
    args[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 == 0) return Usage("every flag takes a value");
  for (const char* required : {"workload", "seed", "seconds", "trace"}) {
    if (args.count(required) == 0) {
      return Usage((std::string("missing --") + required).c_str());
    }
  }
  const std::string forbidden = ForbiddenEnvironment();
  if (!forbidden.empty()) {
    std::cerr << "svt_perfbench: refusing to run with " << forbidden
              << " set; every number must measure the default program\n";
    return 2;
  }

  RunOptions opts;
  opts.seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
  opts.seconds = std::strtod(args["seconds"].c_str(), nullptr);
  opts.trace = args["trace"] == "1";
  if (!(opts.seconds > 0.0)) return Usage("--seconds must be positive");
  const std::string& workload = args["workload"];
  if (opts.trace && args.count("trace-dir") > 0) {
    opts.trace_path = args["trace-dir"] + "/" + workload + "-seed" +
                      args["seed"] + ".spans.tsv";
  }

  WorkloadResult result;
  if (workload == "engine_sparse") {
    result = RunEngineWorkload(EngineShape::kSparse, opts);
  } else if (workload == "engine_near") {
    result = RunEngineWorkload(EngineShape::kNear, opts);
  } else if (workload == "engine_perquery") {
    result = RunEngineWorkload(EngineShape::kPerQuery, opts);
  } else if (workload == "engine_resample") {
    result = RunEngineWorkload(EngineShape::kResample, opts);
  } else if (workload == "paper_sweep") {
    result = RunSweepWorkload(opts);
  } else if (workload == "serving_open") {
    result = RunServingWorkload(opts);
  } else if (workload == "audit_mc") {
    result = RunAuditWorkload(opts);
  } else {
    return Usage(("unknown workload " + workload).c_str());
  }
  result.end_to_end.push_back({"peak_rss_mb", PeakRssMb(), "MB"});

  std::cout << "host " << HostRecordJson() << "\n";
  for (const std::string& note : result.notes) {
    std::cout << "note " << note << "\n";
  }
  const std::string metrics =
      opts.trace ? MetricsJson(kPerLayer, result.per_layer)
                 : MetricsJson(kEndToEnd, result.end_to_end);
  std::cout << "{\"correct\": " << (result.correct ? "true" : "false")
            << ", \"attempted\": " << result.attempted
            << ", \"failed\": " << result.failed
            << ", \"metrics\": " << metrics << "}" << std::endl;
  return result.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
