// sim_paper: the DES reproduction, single-threaded and middleware-free.
// One pass runs the three strategies on Kraken at the first fig2/fig6
// scale plus bench_facility's 64-tenant sharded-MDS create storm; a
// run repeats passes for the requested seconds.
//
// Timed passes take their inputs from the workload seed. One extra,
// untimed pass at the paper's canonical seed (2012) is compared value
// for value with sim_reference.txt, recorded from the program this
// benchmark was written against; every timed pass must also reproduce
// the first one exactly.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "bench_math.hpp"
#include "common.hpp"
#include "des/engine.hpp"
#include "experiments/experiments.hpp"
#include "facility/facility.hpp"
#include "trace/tracer.hpp"

namespace perfbench {
namespace {

using namespace dmr;
using strategies::StrategyKind;

constexpr int kCores = 576;       // first Kraken scale of Figs. 2 and 6
constexpr int kIterations = 5;    // as the fig2/fig6 sweep
constexpr std::uint64_t kCanonicalSeed = 2012;
// Fig. 5's iteration length for the Damaris run, so its dedicated cores
// have spare time to report (at fig2's 4.1 s they have none).
constexpr double kFig5IterationSeconds = 230.0;
// bench_facility's storm: 64 single-node file-per-process tenants on a
// 16-node facility, 50 ms creates on a 16-shard, 2-replica MDS.
constexpr int kStormTenants = 64;
// Passes per best-of-repeats timing sample (see run_sim_paper).
constexpr std::size_t kRepeats = 5;

constexpr const char* kSpanPass = "phase";
constexpr const char* kSpanRun = "run_strategy";
constexpr const char* kSpanFacility = "Facility::run";
// Far from any DES entity index, so its trace shard is the harness's.
constexpr std::uint32_t kMainLane = 0xFFFFF;

struct Inputs {
  strategies::RunConfig runs[3];
  facility::FacilitySpec storm;
};

const char* const kRunNames[3] = {"damaris", "fpp", "collective"};

Inputs make_inputs(std::uint64_t seed) {
  Inputs in;
  in.runs[0] = experiments::kraken_config(StrategyKind::kDamaris, kCores,
                                          kIterations, 1,
                                          kFig5IterationSeconds, seed);
  in.runs[1] = experiments::kraken_config(StrategyKind::kFilePerProcess,
                                          kCores, kIterations, 1, 4.1, seed);
  in.runs[2] = experiments::kraken_config(StrategyKind::kCollectiveIo, kCores,
                                          kIterations, 1, 4.1, seed);

  strategies::RunConfig base = experiments::kraken_config(
      StrategyKind::kFilePerProcess, 12, /*iterations=*/4,
      /*write_interval=*/1, /*iteration_seconds=*/0.05, seed);
  base.workload.bytes_per_point = 4.0;
  facility::FacilitySpec& spec = in.storm;
  spec.platform_spec = base.platform;
  spec.platform_spec.fs.metadata_create_cost = 50e-3;
  spec.platform_spec.fs.metadata = cluster::MetadataModel::kSharded;
  spec.platform_spec.fs.mds_shards = 16;
  spec.platform_spec.fs.mds_replicas = 2;
  spec.facility_nodes = 16;
  spec.facility_seed = seed;
  for (int i = 0; i < kStormTenants; ++i) {
    facility::TenantSpec t;
    t.tenant_id = i;
    t.display_name = "storm-" + std::to_string(i);
    t.base_run = base;
    t.base_run.seed = seed + static_cast<std::uint64_t>(i);
    spec.tenant_specs.push_back(std::move(t));
  }
  return in;
}

using Digest = std::vector<std::pair<std::string, std::string>>;

void put(Digest& d, const std::string& key, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  d.emplace_back(key, buf);
}

struct PassOut {
  double setup_s = 0.0;
  double calls[4] = {0, 0, 0, 0};  // damaris, fpp, collective, facility
  double pass_s = 0.0;
  double spare = 0.0;
  // Damaris run, simulated seconds: per-rank writes and write phases.
  std::vector<double> rank_writes, phases;
  std::uint64_t failed_writes = 0;
  Digest digest;
};

void count_event(void* ctx, des::Time, std::uint64_t, bool) {
  ++*static_cast<std::uint64_t*>(ctx);
}

PassOut run_pass(std::uint64_t seed, trace::Tracer* tracer, double epoch,
                 int index) {
  PassOut p;
  const trace::EntityId lane{trace::EntityType::kShmClient, kMainLane};
  auto span = [&](const char* name, double t0, double t1) {
    if (tracer == nullptr) return;
    tracer->record_span(lane, trace::Category::kPipeline, name, t0 - epoch,
                        t1 - t0, 0, index);
  };

  const double s0 = now_s();
  const Inputs in = make_inputs(seed);
  facility::Facility fac(in.storm);
  const double t0 = now_s();
  p.setup_s = t0 - s0;
  for (int k = 0; k < 3; ++k) {
    const double c0 = now_s();
    const strategies::RunResult r = strategies::run_strategy(in.runs[k]);
    const double c1 = now_s();
    span(kSpanRun, c0, c1);
    p.calls[k] = c1 - c0;
    p.failed_writes += r.failed_writes;
    const std::string n = kRunNames[k];
    put(p.digest, n + ".total_runtime", r.total_runtime);
    put(p.digest, n + ".rank_write_mean", r.rank_write_seconds.mean());
    put(p.digest, n + ".phase_mean", r.phase_seconds.mean());
    put(p.digest, n + ".aggregate_throughput", r.aggregate_throughput);
    if (k == 0) {
      p.spare = r.dedicated_spare_fraction;
      p.rank_writes = r.rank_write_seconds.values();
      p.phases = r.phase_seconds.values();
      put(p.digest, n + ".spare_fraction", r.dedicated_spare_fraction);
    }
  }
  const double f0 = now_s();
  const facility::FacilityOutcome out = fac.run();
  const double f1 = now_s();
  span(kSpanFacility, f0, f1);
  p.calls[3] = f1 - f0;
  put(p.digest, "storm.makespan", out.makespan);
  put(p.digest, "storm.aggregate_bandwidth", out.aggregate_bandwidth);
  put(p.digest, "storm.fairness", out.fairness_index);
  put(p.digest, "storm.creates",
      static_cast<double>(out.facility_fs_stats.creates));
  p.pass_s = f1 - t0;
  span(kSpanPass, t0, f1);
  return p;
}

std::string digest_text(const Digest& d) {
  std::string s;
  for (const auto& [k, v] : d) s += k + " " + v + "\n";
  return s;
}

}  // namespace

int record_sim_reference() {
  std::fputs(digest_text(run_pass(kCanonicalSeed, nullptr, 0.0, 0).digest)
                 .c_str(),
             stdout);
  return 0;
}

RunResult run_sim_paper(const Options& opts) {
  RunResult out;
  const double t_begin = now_s();

  // Output check 1: the canonical pass equals the recorded reference.
  {
    std::ifstream ref(opts.sim_reference);
    std::map<std::string, std::string> want;
    std::string key, value;
    while (ref >> key >> value) want[key] = value;
    if (want.empty()) {
      out.fail_check("no simulator reference at " + opts.sim_reference);
    }
    const PassOut canon = run_pass(kCanonicalSeed, nullptr, 0.0, 0);
    for (const auto& [k, v] : canon.digest) {
      auto it = want.find(k);
      if (it == want.end() || it->second != v) {
        out.fail_check("sim reference " + k + ": got " + v + ", recorded " +
                       (it == want.end() ? std::string("nothing")
                                         : it->second));
      }
    }
    if (canon.digest.size() != want.size()) {
      out.fail_check("sim reference holds " + std::to_string(want.size()) +
                     " values, the pass " +
                     std::to_string(canon.digest.size()));
    }
  }

  // Timed passes; with --trace 1 they alternate untraced / traced.
  std::vector<PassOut> plain, traced;
  std::vector<std::uint64_t> events;
  std::vector<double> pass_self;
  std::uint64_t overwritten = 0;
  const std::size_t min_passes = opts.trace ? 2 * kRepeats : kRepeats;
  for (int i = 0; plain.size() + traced.size() < min_passes ||
                  now_s() - t_begin < opts.seconds;
       ++i) {
    const bool trace_this = opts.trace && i % 2 == 1;
    if (!trace_this) {
      plain.push_back(run_pass(opts.seed, nullptr, 0.0, i));
      continue;
    }
    trace::TracerOptions topts;
    topts.shards = 4096;  // keeps kMainLane's shard clear of DES lanes
    trace::Tracer tracer(topts);
    std::uint64_t n_events = 0;
    {
      trace::ScopedTracer scope(&tracer);
      des::set_thread_dispatch_hook(count_event, &n_events);
      traced.push_back(
          run_pass(opts.seed, &tracer, now_s() - tracer.wall_now(), i));
      des::set_thread_dispatch_hook(nullptr, nullptr);
    }
    events.push_back(n_events);
    overwritten += tracer.overwritten();
    std::vector<SpanRec> spans;
    for (const trace::TraceEvent& ev : tracer.drain()) {
      if (ev.kind == trace::EventKind::kSpan &&
          ev.entity.index == kMainLane &&
          ev.entity.type == trace::EntityType::kShmClient) {
        spans.push_back({ev.entity.key(), ev.name == kSpanPass ? 0 : 1, ev.t,
                         ev.dur});
      }
    }
    if (spans.size() != 5) {
      out.notes.push_back("traced pass kept " + std::to_string(spans.size()) +
                          " of its 5 harness spans");
    }
    const std::vector<double> self = self_times(spans);
    for (std::size_t k = 0; k < spans.size(); ++k) {
      if (spans[k].name == 0) pass_self.push_back(self[k]);
    }
  }

  // Output check 2: identical inputs give identical results.
  std::vector<const PassOut*> all;
  for (const PassOut& p : plain) all.push_back(&p);
  for (const PassOut& p : traced) all.push_back(&p);
  for (const PassOut* p : all) {
    out.attempted += 4;
    if (p->digest != all.front()->digest) {
      out.fail_check("a pass with the same seed gave different results");
      ++out.failed;
    }
    if (p->failed_writes != 0) ++out.failed;
  }

  auto collect = [&](auto field) {
    std::vector<double> xs;
    for (const PassOut& p : plain) xs.push_back(field(p));
    return xs;
  };
  if (!opts.trace) {
    out.add("setup_s", median(collect([](const PassOut& p) { return p.setup_s; })),
            "s", plain.size());
    // The DES's own answer for the client-visible write (Fig. 2): the
    // Damaris run's simulated per-rank write times, identical in every
    // pass of a run.
    const Quantile w50 = percentile(plain.front().rank_writes, 50.0);
    const Quantile w99 = percentile(plain.front().rank_writes, 99.0);
    out.add("write_p50_us", w50.value * 1e6, "us", w50.n, w50.beyond);
    out.add("write_p99_us", w99.value * 1e6, "us", w99.n, w99.beyond);
    // ... and the simulated write phase (barrier to barrier), Fig. 2.
    const Quantile ph50 = percentile(plain.front().phases, 50.0);
    const Quantile ph99 = percentile(plain.front().phases, 99.0);
    out.add("phase_p50_ms", ph50.value * 1e3, "ms", ph50.n, ph50.beyond);
    out.add("phase_p99_ms", ph99.value * 1e3, "ms", ph99.n, ph99.beyond);
    // Host cost of a pass. A pass is deterministic work, but host
    // interference comes in episodes lasting seconds, so each sample is
    // the fastest of kRepeats passes spaced evenly across the run (best
    // of repeats) and run_s is their median.
    const auto passes = collect([](const PassOut& p) { return p.pass_s; });
    std::vector<double> best;
    const std::size_t stride = passes.size() / kRepeats;
    for (std::size_t i = 0; i < stride; ++i) {
      double b = passes[i];
      for (std::size_t r = 1; r < kRepeats; ++r) {
        b = std::min(b, passes[i + r * stride]);
      }
      best.push_back(b);
    }
    const Quantile wall = percentile(best, 50.0);
    out.add("run_s", wall.value, "s", wall.n);
    out.add("spare_frac", plain.front().spare, "fraction", 1);
    out.add("peak_rss_mib", peak_rss_mib(), "MiB", 1);
    char line[160];
    std::snprintf(line, sizeof line,
                  "pass seconds: fastest %.4f, p25 %.4f, p50 %.4f, p75 %.4f, "
                  "slowest %.4f (the spread is host interference)",
                  percentile(passes, 0.0).value,
                  percentile(passes, 25.0).value,
                  percentile(passes, 50.0).value,
                  percentile(passes, 75.0).value,
                  percentile(passes, 100.0).value);
    out.notes.push_back(line);
    out.notes.push_back("sim_wall_s = " + std::to_string(wall.value) +
                        " s (median of " + std::to_string(best.size()) +
                        " best-of-" + std::to_string(kRepeats) +
                        " samples over " + std::to_string(passes.size()) +
                        " passes; reported as run_s)");
  } else {
    const char* names[4] = {"sim.damaris_s", "sim.fpp_s", "sim.collective_s",
                            "sim.facility_s"};
    for (int k = 0; k < 4; ++k) {
      out.add(names[k],
              percentile(collect([k](const PassOut& p) { return p.calls[k]; }),
                         0.0)
                  .value,
              "s", plain.size());
    }
    const double pass =
        percentile(collect([](const PassOut& p) { return p.pass_s; }), 0.0)
            .value;
    std::vector<double> ev(events.begin(), events.end());
    const double n_events = median(ev);
    out.add("des.events", n_events, "count", events.size());
    out.add("des.ns_per_event", n_events > 0 ? pass / n_events * 1e9 : 0.0,
            "ns", plain.size());
    std::vector<double> tpass;
    for (const PassOut& p : traced) tpass.push_back(p.pass_s);
    out.add("trace.overhead_frac",
            pass > 0 ? percentile(tpass, 0.0).value / pass - 1.0 : 0.0,
            "fraction", traced.size());
    const Quantile self = percentile(pass_self, 50.0);
    out.add("trace.phase_self_us", self.value * 1e6, "us", self.n);
    out.add("write_fail_frac",
            out.attempted == 0 ? 0.0
                               : static_cast<double>(out.failed) /
                                     static_cast<double>(out.attempted),
            "fraction", out.attempted);
    if (overwritten > 0) {
      out.notes.push_back("trace rings overwrote " + std::to_string(overwritten) +
                          " program events (DES lanes; harness spans kept)");
    }
  }
  out.notes.push_back("passes: " + std::to_string(plain.size()) +
                      " untraced, " + std::to_string(traced.size()) +
                      " traced");
  return out;
}

}  // namespace perfbench
