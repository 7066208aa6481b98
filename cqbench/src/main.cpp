// cqbench: the repository benchmark's executable. Runs one named workload
// from a seed, checks its outputs against a from-scratch oracle, and prints
// one JSON object per line: a build stamp, notes (determinism snapshot,
// oracle outcome, layer check), and last the result
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer ones
// (--trace 1). See README.md for the workloads and metric definitions.
//
//   cqbench --workload fanout_complete --seed 1 --seconds 10 --trace 0
//
// Exit codes: 0 ok, 1 oracle mismatch (result still printed) or a driver
// error (no result), 2 usage, 3 refused (lock-order checks compiled in and
// --trace 0).
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "harness.hpp"
#include "tracing.hpp"

namespace {

using namespace cqbench;  // NOLINT(google-build-using-namespace)

#ifdef CQ_LOCK_ORDER_CHECKS
constexpr bool kLockOrderChecks = true;
#else
constexpr bool kLockOrderChecks = false;
#endif

std::string number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string build_stamp(const Options& opt) {
  std::string out = "{\"build\": {\"build_type\": \"";
  out += CQBENCH_BUILD_TYPE;
  out += "\", \"lock_order_checks\": ";
  out += kLockOrderChecks ? "true" : "false";
  out += ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  out += ", \"compiler\": \"";
#if defined(__clang__)
  out += "clang ";
#elif defined(__GNUC__)
  out += "gcc ";
#endif
  out += __VERSION__;
  out += "\", \"git_sha\": \"" + opt.git_sha + "\"}}";
  return out;
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "cqbench: %s\nusage: cqbench --workload "
               "{fanout_complete|writers_disjoint|mediator_refresh} [--seed N] "
               "[--seconds S] [--trace 0|1] [--lanes N] [--scale X] [--out-dir DIR] "
               "[--git-sha SHA]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") opt.workload = value;
      else if (arg == "--seed") opt.seed = std::stoull(value);
      else if (arg == "--seconds") opt.seconds = std::stod(value);
      else if (arg == "--trace") opt.trace = value != "0";
      else if (arg == "--lanes") opt.lanes = std::stoul(value);
      else if (arg == "--scale") opt.scale = std::stod(value);
      else if (arg == "--out-dir") opt.out_dir = value;
      else if (arg == "--git-sha") opt.git_sha = value;
      else return usage(("unknown option " + arg).c_str());
    } catch (const std::exception&) {
      return usage(("bad value for " + arg).c_str());
    }
  }
  if (opt.seconds <= 0 || opt.scale <= 0) return usage("--seconds and --scale must be > 0");
  RunStats (*run)(const Options&) = nullptr;
  if (opt.workload == "fanout_complete") run = run_fanout_complete;
  else if (opt.workload == "writers_disjoint") run = run_writers_disjoint;
  else if (opt.workload == "mediator_refresh") run = run_mediator_refresh;
  else return usage(("unknown workload '" + opt.workload + "'").c_str());

  std::printf("%s\n", build_stamp(opt).c_str());
  if (kLockOrderChecks && !opt.trace) {
    std::fprintf(stderr,
                 "cqbench: refusing to report end-to-end metrics from a build with "
                 "CQ_LOCK_ORDER_CHECKS compiled in (configure with "
                 "-DCMAKE_BUILD_TYPE=Release)\n");
    return 3;
  }

  RunStats stats;
  try {
    stats = run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cqbench: %s failed: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }

  std::vector<Metric> metrics;
  if (opt.trace) {
    const auto spans = tracer::merged();
    metrics = per_layer_metrics(stats, spans);
    stats.notes.push_back(layer_check(opt.workload, stats, spans));
    if (!opt.out_dir.empty()) {
      tracer::write_chrome_trace(opt.out_dir + "/trace_" + opt.workload + "_" +
                                 std::to_string(opt.seed) + ".json");
    }
  } else {
    metrics = end_to_end_metrics(stats);
  }
  for (const auto& note : stats.notes) std::printf("%s\n", note.c_str());

  std::string line = "{\"correct\": ";
  line += stats.oracle_ok ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(stats.attempted);
  line += ", \"failed\": " + std::to_string(stats.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " + number(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return stats.oracle_ok ? 0 : 1;
}
