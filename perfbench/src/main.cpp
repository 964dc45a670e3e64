// dmr_perfbench: one workload per invocation, printing each metric by
// name with its unit and sample count, then one JSON result line.
//
//   dmr_perfbench --workload small_writes|checkpoint|insitu|sim_paper
//                 --seed N --seconds S --trace 0|1
//                 [--out-dir DIR] [--sim-reference FILE]
//   dmr_perfbench --record-sim-reference > perfbench/sim_reference.txt
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
// ones (from a traced run, see README.md). Exits 1 when an output check
// fails, 2 on bad arguments.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <span>
#include <string>

#include "common.hpp"

namespace {

struct Declared {
  const char* name;
  const char* unit;
};

// The metric sets BENCHMARK.json declares; every workload reports all
// of them (0 where a layer does not take part in the workload).
constexpr Declared kEndToEnd[] = {
    {"setup_s", "s"},           {"write_p50_us", "us"},
    {"write_p99_us", "us"},     {"phase_p50_ms", "ms"},
    {"phase_p99_ms", "ms"},     {"run_s", "s"},
    {"spare_frac", "fraction"}, {"peak_rss_mib", "MiB"},
};

constexpr Declared kPerLayer[] = {
    {"shm.floor_warm_us", "us"},
    {"shm.floor_cold_us", "us"},
    {"core.handoff_us", "us"},
    {"core.end_iteration_us", "us"},
    {"core.alloc_us", "us"},
    {"core.commit_us", "us"},
    {"core.submit_us", "us"},
    {"core.fence_ms", "ms"},
    {"shm.alloc_stalls", "count"},
    {"shm.peak_used_mib", "MiB"},
    {"write_fail_frac", "fraction"},
    {"format.encode_ms", "ms"},
    {"format.encode_mib_s", "MiB/s"},
    {"format.ratio", "ratio"},
    {"format.encode_floor_mib_s", "MiB/s"},
    {"format.store_ms", "ms"},
    {"format.store_mib_s", "MiB/s"},
    {"format.files", "count"},
    {"format.dh5_floor_mib_s", "MiB/s"},
    {"plugin.chain_ms", "ms"},
    {"plugin.statistics_ms", "ms"},
    {"plugin.minmax_index_ms", "ms"},
    {"plugin.floor_ms", "ms"},
    {"server.persist_ms", "ms"},
    {"server.messages", "count"},
    {"config.parse_ms", "ms"},
    {"sim.damaris_s", "s"},
    {"sim.fpp_s", "s"},
    {"sim.collective_s", "s"},
    {"sim.facility_s", "s"},
    {"des.events", "count"},
    {"des.ns_per_event", "ns"},
    {"trace.overhead_frac", "fraction"},
    {"trace.phase_self_us", "us"},
};

int usage(const char* why) {
  std::fprintf(stderr,
               "dmr_perfbench: %s\nusage: dmr_perfbench --workload NAME "
               "--seed N --seconds S --trace 0|1 [--out-dir DIR] "
               "[--sim-reference FILE]\n",
               why);
  return 2;
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opts;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--record-sim-reference") return perfbench::record_sim_reference();
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      opts.workload = v;
    } else if (a == "--seed") {
      opts.seed = std::strtoull(v, &end, 10);
      have_seed = end != v && *end == '\0';
    } else if (a == "--seconds") {
      opts.seconds = std::strtod(v, &end);
      have_seconds = end != v && *end == '\0' && opts.seconds > 0.0;
    } else if (a == "--trace") {
      have_trace = std::strcmp(v, "0") == 0 || std::strcmp(v, "1") == 0;
      opts.trace = std::strcmp(v, "1") == 0;
    } else if (a == "--out-dir") {
      opts.out_dir = v;
    } else if (a == "--sim-reference") {
      opts.sim_reference = v;
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return usage("--seed, --seconds and --trace are required");
  }
  const bool sim = opts.workload == "sim_paper";
  if (!sim && opts.workload != "small_writes" &&
      opts.workload != "checkpoint" && opts.workload != "insitu") {
    return usage(("unknown workload '" + opts.workload + "'").c_str());
  }

  perfbench::RunResult r =
      sim ? perfbench::run_sim_paper(opts) : perfbench::run_middleware(opts);

  std::map<std::string, const perfbench::Metric*> got;
  for (const perfbench::Metric& m : r.metrics) got[m.name] = &m;
  for (const std::string& n : r.notes) std::printf("# %s\n", n.c_str());

  std::string json = "{\"correct\": ";
  json += r.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const Declared& d : opts.trace ? std::span<const Declared>(kPerLayer)
                                      : std::span<const Declared>(kEndToEnd)) {
    double value = 0.0;
    std::size_t n = 0, beyond = 0;
    if (auto it = got.find(d.name); it != got.end()) {
      value = it->second->value;
      n = it->second->samples;
      beyond = it->second->beyond;
      if (it->second->unit != d.unit) {
        std::fprintf(stderr, "metric %s: unit %s, declared %s\n", d.name,
                     it->second->unit.c_str(), d.unit);
        r.correct = false;
      }
      got.erase(it);
    }
    std::string count = "n=" + std::to_string(n);
    if (beyond > 0) count += ", " + std::to_string(beyond) + " beyond";
    std::printf("%-26s = %-14.6g %-8s (%s)\n", d.name, value, d.unit,
                count.c_str());
    json += first ? "" : ", ";
    first = false;
    json += "\"" + std::string(d.name) + "\": {\"value\": " +
            json_number(value) + ", \"unit\": \"" + d.unit + "\"}";
  }
  json += "}}";
  for (const auto& [name, m] : got) {
    std::fprintf(stderr, "undeclared metric %s\n", name.c_str());
    r.correct = false;
  }
  std::printf("attempted %llu, failed %llu, output check %s\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              r.correct ? "passed" : "FAILED");
  std::printf("%s\n", json.c_str());
  return r.correct ? 0 : 1;
}
