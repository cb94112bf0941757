// perfbench: the repository's benchmark. One binary runs one seeded workload
// (serve-hot, serve-cold, sweep or sweep-cold) against the library's public
// API, checks every output, and prints its metrics; the last line of standard
// output is the result object {"correct", "attempted", "failed", "metrics"}.
//
//   perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
//
// --trace=0 measures the end-to-end metrics; --trace=1 is the separate
// traced run that reports the per-layer metrics and writes the spans to
// .bench_out/trace-<workload>.json. Each serve workload's latency limit and
// rates are fixed in serve_workload.cc.
// Exit status: 0 when every check passed, 1 when a check failed (the result
// line says correct=false), 2 on bad flags, failed set-up, or an invalid
// run (the load generator fell behind) — then no result line is printed.
#include <sys/resource.h>
#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>

#include "common.h"
#include "layers.h"
#include "serve_workload.h"
#include "sweep_workload.h"
#include "trace.h"

namespace perfbench {

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

namespace {

bool ParseDouble(const std::string& text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  return !text.empty() && end != nullptr && *end == '\0';
}

void PrintResult(const Report& report) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
              report.failed == 0 ? "true" : "false",
              static_cast<long long>(std::max<int64_t>(1, report.attempted)),
              static_cast<long long>(report.failed));
  bool first = true;
  for (const auto& [name, value] : report.metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ", name.c_str(),
                value.first, value.second.c_str());
    first = false;
  }
  std::printf("}}\n");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  NowS();  // fixes the time origin at process start
  std::string workload;
  double seed_value = 1.0, seconds = 10.0, trace = 0.0;
  const std::map<std::string, double*> numbers = {
      {"--seed", &seed_value}, {"--seconds", &seconds}, {"--trace", &trace}};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    bool ok = true;
    if (key == "--workload") {
      workload = value;
    } else {
      auto it = numbers.find(key);
      ok = it != numbers.end() && ParseDouble(value, it->second);
    }
    if (!ok) {
      std::fprintf(stderr, "perfbench: bad argument %s\n", arg.c_str());
      return 2;
    }
  }
  const ServeSettings* serve = FindServeSettings(workload);
  const bool is_serve = serve != nullptr;
  const bool cold_sweep = workload == "sweep-cold";
  if (!is_serve && workload != "sweep" && !cold_sweep) {
    std::fprintf(stderr,
                 "perfbench: --workload must be serve-hot, serve-cold, sweep or sweep-cold\n");
    return 2;
  }
  const uint64_t seed = static_cast<uint64_t>(seed_value);
  ::mkdir(kScratchDir, 0755);
  std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d nproc=%u\n", workload.c_str(),
              static_cast<unsigned long long>(seed), seconds, static_cast<int>(trace),
              std::thread::hardware_concurrency());

  Report report;
  bool valid = false;
  if (trace == 0.0) {
    valid = is_serve ? RunServeEndToEnd(*serve, seed, seconds, &report)
                     : RunSweepEndToEnd(seed, seconds, cold_sweep, &report);
  } else {
    Tracer tracer;
    valid = is_serve ? RunServeTraced(*serve, seed, seconds, &tracer, &report)
                     : RunSweepTraced(seed, seconds, cold_sweep, &tracer, &report);
    SummarizeLayers(tracer, &report);
    const std::string path = std::string(kScratchDir) + "/trace-" + workload + ".json";
    if (!tracer.Export(path)) std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    std::printf("trace file: %s\n", path.c_str());
  }
  if (!valid) {
    std::fprintf(stderr, "perfbench: run invalid or set-up failed; no result\n");
    return 2;
  }
  for (const std::string& failure : report.check_failures) {
    std::printf("CHECK FAILED: %s\n", failure.c_str());
  }
  PrintResult(report);
  return report.failed == 0 ? 0 : 1;
}
