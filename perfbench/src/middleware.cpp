// Live-middleware workloads: one DamarisNode with a dedicated core and
// kClients client threads in this process, each a closed loop of
// compute (a sleep), writes and end_iteration. A run repeats whole jobs
// (parse + construct + start, N iterations, stop, read-back check)
// until the requested seconds have passed, so setup and job time are
// medians over several jobs.
//
// Every layer is measured from outside: the benchmark times its calls
// into the public API and reads the public stats. With --trace 1, jobs
// alternate untraced / traced (a trace::Tracer installed through
// ScopedTracer); the benchmark records a span around each call it
// makes, and the program's own kPersist / kPlugin / kShm events come
// along unchanged.
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_math.hpp"
#include "common.hpp"
#include "config/config.hpp"
#include "core/damaris.hpp"
#include "format/dh5.hpp"
#include "format/pipeline.hpp"
#include "plugin/registry.hpp"
#include "shm/event_queue.hpp"
#include "shm/shared_buffer.hpp"
#include "trace/tracer.hpp"

namespace perfbench {

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

using namespace dmr;

// The paper's 1-of-N split on a 4-core node: three compute cores and
// one dedicated core. Fixed, so inputs do not depend on the host.
constexpr int kClients = 3;
// Payload variants per (client, variable); element 0 of every write is
// stamped with the iteration, so each written block is still unique.
constexpr int kVariants = 4;
// Iterations whose latencies are dropped: the first write of a client
// spawns its submission worker and first-touches its buffer pages, a
// once-per-job cost that stays in run_s but would otherwise sit in the
// tail percentiles.
constexpr int kWarmupIterations = 1;

enum class Api {
  kWrite,       // blocking Client::write
  kHalfZeroCopy,  // half write, half alloc + fill + commit
  kAsync,       // write_async, fenced by end_iteration
};

struct Spec {
  const char* name;
  Api api;
  int vars;
  std::size_t elems;  // float32 elements per variable
  const char* var_prefix;
  const char* policy;    // <buffer policy=...>
  const char* pipeline;  // <variable pipeline=...>, "" = none
  bool plugins;
  int compute_us;  // emulated compute phase per iteration
  int iterations;  // per job
};

// Sizing: compute phases put the dedicated core at roughly half load on
// a 4-core x86 host (checkpoint: DH5 storage of 12 MiB/iteration;
// insitu: lossless encode + plugins); jobs last about a second.
constexpr Spec kSpecs[] = {
    {"small_writes", Api::kWrite, 16, 1024, "v", "firstfit", "", false, 3000,
     300},
    {"checkpoint", Api::kHalfZeroCopy, 4, 256 * 1024, "c", "partitioned", "",
     false, 80000, 24},
    {"insitu", Api::kAsync, 4, 16 * 1024, "u", "firstfit", "lossless", true,
     80000, 24},
};

std::string var_name(const Spec& s, int v) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%s%02d", s.var_prefix, v);
  return buf;
}

std::string make_xml(const Spec& s) {
  std::string x = "<damaris>\n";
  x += std::string("  <buffer policy=\"") + s.policy + "\"/>\n";
  x += "  <dedicated cores=\"1\"/>\n";
  x += "  <layout name=\"field\" type=\"float32\" dimensions=\"" +
       std::to_string(s.elems) + "\"/>\n";
  for (int v = 0; v < s.vars; ++v) {
    x += "  <variable name=\"" + var_name(s, v) + "\" layout=\"field\"";
    if (*s.pipeline != '\0') x += std::string(" pipeline=\"") + s.pipeline + "\"";
    x += "/>\n";
  }
  if (s.plugins) {
    x += "  <plugins>\n";
    x += "    <plugin name=\"statistics\" type=\"statistics\"/>\n";
    x += "    <plugin name=\"minmax_index\" type=\"minmax_index\"/>\n";
    x += "  </plugins>\n";
  }
  x += "</damaris>\n";
  return x;
}

/// Seeded payloads: pool[c][v][k] is variant k of client c's variable v.
using Pool = std::vector<std::vector<std::vector<std::vector<float>>>>;

Pool make_pool(const Spec& s, std::uint64_t seed) {
  Pool pool(kClients);
  for (int c = 0; c < kClients; ++c) {
    pool[c].resize(static_cast<std::size_t>(s.vars));
    for (int v = 0; v < s.vars; ++v) {
      for (int k = 0; k < kVariants; ++k) {
        const std::uint64_t stream = (static_cast<std::uint64_t>(c) << 32) |
                                     (static_cast<std::uint64_t>(v) << 8) |
                                     static_cast<std::uint64_t>(k);
        pool[c][v].push_back(seeded_field(seed, stream, s.elems));
      }
    }
  }
  return pool;
}

std::span<const std::byte> bytes_of(const std::vector<float>& f) {
  return {reinterpret_cast<const std::byte*>(f.data()),
          f.size() * sizeof(float)};
}

// Span names the benchmark records (static storage for TraceEvent).
constexpr const char* kSpanPhase = "phase";
constexpr const char* kSpanWrite = "write";
constexpr const char* kSpanAlloc = "alloc";
constexpr const char* kSpanCommit = "commit";
constexpr const char* kSpanAsync = "write_async";
constexpr const char* kSpanEnd = "end_iteration";
constexpr const char* kSpanStart = "start";
constexpr const char* kSpanStop = "stop";
// The benchmark's main thread gets its own lane, far from client ids.
constexpr std::uint32_t kMainLane = 1000;

/// Per-client record of one job.
struct ClientLog {
  std::vector<std::uint32_t> acked;  // per iteration: bit v = published
  std::vector<double> write_lat, phase;
  std::uint64_t attempted = 0;
};

struct JobOut {
  bool traced = false;
  double setup_s = 0.0, parse_s = 0.0, run_s = 0.0, spare = 0.0;
  std::vector<ClientLog> logs;
  std::uint64_t attempted = 0, unacked = 0, readback_bad = 0;
  core::ServerStats stats;
  std::vector<plugin::PluginStats> plugins;
  std::uint64_t alloc_stalls = 0;
  double peak_used_mib = 0.0;
  std::vector<trace::TraceEvent> events;
  std::uint64_t trace_overwritten = 0;
};

/// The node's core layout made physical: client c runs on the c-th
/// allowed CPU, the dedicated core on the next one. Threads inherit
/// the affinity of the thread that creates them, so the server thread
/// (created in start()) lands on the dedicated core and each client's
/// submission worker (created on its first write) on its client's core.
/// Empty when the process may use fewer CPUs than kClients + 1; nothing
/// is pinned then.
std::vector<int> layout_cpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return {};
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  if (cpus.size() < static_cast<std::size_t>(kClients + 1)) return {};
  cpus.resize(kClients + 1);
  return cpus;
}

/// Pins the calling thread to `cpus` (one CPU, or the whole layout).
void pin_self(const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) CPU_SET(cpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

struct JobCtx {
  const Spec* spec = nullptr;
  Pool* pool = nullptr;
  core::DamarisNode* node = nullptr;
  trace::Tracer* tracer = nullptr;
  double epoch = 0.0;  // now_s() at tracer time 0
  std::vector<int> cpus;  // layout_cpus(), empty = unpinned
};

void record(const JobCtx& ctx, trace::EntityId lane, const char* name,
            double t0, double t1, std::uint64_t bytes, std::int64_t it) {
  if (ctx.tracer == nullptr) return;
  ctx.tracer->record_span(lane, trace::Category::kPipeline, name,
                          t0 - ctx.epoch, t1 - t0, bytes,
                          static_cast<std::int32_t>(it));
}

void client_main(const JobCtx& ctx, int c, ClientLog& log) {
  const Spec& s = *ctx.spec;
  if (!ctx.cpus.empty()) pin_self({ctx.cpus[c]});
  core::Client client = ctx.node->client(c);
  const trace::EntityId lane{trace::EntityType::kShmClient,
                             static_cast<std::uint32_t>(c)};
  const std::size_t bytes = s.elems * sizeof(float);
  std::vector<std::string> names;
  for (int v = 0; v < s.vars; ++v) names.push_back(var_name(s, v));
  std::vector<core::WriteTicket> tickets;

  for (int it = 0; it < s.iterations; ++it) {
    std::this_thread::sleep_for(std::chrono::microseconds(s.compute_us));
    std::uint32_t acked = 0;
    const double p0 = now_s();
    for (int v = 0; v < s.vars; ++v) {
      // Client c alone touches pool[c]; only element 0 (the iteration
      // stamp) changes, which is what the read-back check expects.
      std::vector<float>& src = (*ctx.pool)[c][v][it % kVariants];
      const bool zero_copy = s.api == Api::kHalfZeroCopy && v >= s.vars / 2;
      ++log.attempted;
      if (zero_copy) {
        const double a0 = now_s();
        auto block = client.alloc(names[v], it);
        const double a1 = now_s();
        record(ctx, lane, kSpanAlloc, a0, a1, bytes, it);
        if (!block.is_ok()) {
          log.write_lat.push_back(a1 - a0);
          continue;
        }
        std::byte* dst = block.value().data();
        std::memcpy(dst, src.data(), bytes);
        const float stamp = static_cast<float>(it);
        std::memcpy(dst, &stamp, sizeof stamp);
        const double c0 = now_s();
        const Status st = client.commit(names[v], it);
        const double c1 = now_s();
        // The fill is the copy write() does internally, so both halves
        // of the workload time the same hand-over of the same bytes.
        log.write_lat.push_back(c1 - a0);
        record(ctx, lane, kSpanCommit, c0, c1, bytes, it);
        if (st.is_ok()) acked |= 1u << v;
        continue;
      }
      src[0] = static_cast<float>(it);
      const double w0 = now_s();
      if (s.api == Api::kAsync) {
        tickets.push_back(client.write_async(names[v], it, bytes_of(src)));
        const double w1 = now_s();
        log.write_lat.push_back(w1 - w0);
        record(ctx, lane, kSpanAsync, w0, w1, bytes, it);
      } else {
        const Status st = client.write(names[v], it, bytes_of(src));
        const double w1 = now_s();
        log.write_lat.push_back(w1 - w0);
        record(ctx, lane, kSpanWrite, w0, w1, bytes, it);
        if (st.is_ok()) acked |= 1u << v;
      }
    }
    const double e0 = now_s();
    const Status end = client.end_iteration(it);
    const double e1 = now_s();
    log.phase.push_back(e1 - p0);
    record(ctx, lane, kSpanEnd, e0, e1, 0, it);
    record(ctx, lane, kSpanPhase, p0, e1, 0, it);
    if (!end.is_ok()) {
      std::fprintf(stderr, "end_iteration(%d): %s\n", it,
                   end.to_string().c_str());
    }
    // The fence above completed every ticket of this iteration.
    for (std::size_t v = 0; v < tickets.size(); ++v) {
      const core::WriteTicket& t = tickets[v];
      if (t.done() && t.status().is_ok() &&
          t.outcome() == core::WriteOutcome::kPublished) {
        acked |= 1u << v;
      }
    }
    tickets.clear();
    log.acked.push_back(acked);
    if (it < kWarmupIterations) {
      log.write_lat.clear();
      log.phase.clear();
    }
  }
  if (Status st = client.finalize(); !st.is_ok()) {
    std::fprintf(stderr, "finalize: %s\n", st.to_string().c_str());
  }
}

/// Reopens every DH5 file of the job and checks it against the acked
/// writes and the seeded payloads.
void check_files(const Spec& s, const Pool& pool, const std::string& dir,
                 JobOut& job, RunResult& out) {
  for (int it = 0; it < s.iterations; ++it) {
    std::uint64_t expected = 0;
    for (const ClientLog& log : job.logs) {
      expected += static_cast<std::uint64_t>(std::popcount(log.acked[it]));
    }
    if (expected == 0) continue;  // the node writes no file for it
    const std::string path =
        dir + "/bench_node0_it" + std::to_string(it) + ".dh5";
    auto reader = format::Dh5Reader::open(path);
    if (!reader.is_ok()) {
      job.readback_bad += expected;
      out.fail_check("cannot reopen " + path + ": " +
                     reader.status().to_string());
      continue;
    }
    if (reader.value().entries().size() != expected) {
      out.fail_check("iteration " + std::to_string(it) + " holds " +
                     std::to_string(reader.value().entries().size()) +
                     " datasets, " + std::to_string(expected) + " acked");
    }
    for (int c = 0; c < kClients; ++c) {
      for (int v = 0; v < s.vars; ++v) {
        if ((job.logs[c].acked[it] & (1u << v)) == 0) continue;
        const auto idx = reader.value().find(var_name(s, v), it, c);
        if (!idx) {
          ++job.readback_bad;
          continue;
        }
        auto data = reader.value().read(*idx);
        const std::vector<float>& want = pool[c][v][it % kVariants];
        const std::size_t n = want.size() * sizeof(float);
        bool same = data.is_ok() && data.value().size() == n;
        if (same) {
          const float stamp = static_cast<float>(it);
          same = std::memcmp(data.value().data(), &stamp, sizeof stamp) == 0 &&
                 std::memcmp(data.value().data() + sizeof(float),
                             want.data() + 1, n - sizeof(float)) == 0;
        }
        if (!same) ++job.readback_bad;
      }
    }
  }
  if (job.readback_bad > 0) {
    out.fail_check(std::to_string(job.readback_bad) +
                   " acked blocks missing or wrong at read-back");
  }
}

/// The statistics plugin's last published moments must equal what the
/// benchmark computes from its own inputs for the final iteration (same
/// Welford recurrence, same block order: variable, then source).
void check_statistics(const Spec& s, const Pool& pool, const JobOut& job,
                      const std::map<std::string, double>& analytics,
                      RunResult& out) {
  const int it = s.iterations - 1;
  for (int v = 0; v < s.vars; ++v) {
    double count = 0.0, mean = 0.0, m2 = 0.0, lo = 0.0, hi = 0.0;
    for (int c = 0; c < kClients; ++c) {
      if ((job.logs[c].acked[it] & (1u << v)) == 0) continue;
      std::vector<float> f = pool[c][v][it % kVariants];
      f[0] = static_cast<float>(it);
      for (float x32 : f) {
        const double x = x32;
        if (count == 0.0) {
          lo = hi = x;
        } else {
          lo = std::min(lo, x);
          hi = std::max(hi, x);
        }
        count += 1.0;
        const double d = x - mean;
        mean += d / count;
        m2 += d * (x - mean);
      }
    }
    if (count == 0.0) continue;
    const double sd = count < 2.0 ? 0.0 : std::sqrt(m2 / (count - 1.0));
    const std::string name = var_name(s, v);
    const std::pair<const char*, double> want[] = {
        {".count", count}, {".min", lo}, {".max", hi}, {".mean", mean},
        {".stddev", sd}};
    for (const auto& [suffix, value] : want) {
      auto got = analytics.find(name + suffix);
      const double tol = 1e-9 * std::max(1.0, std::fabs(value));
      if (got == analytics.end() || std::fabs(got->second - value) > tol) {
        out.fail_check("statistics " + name + suffix + " = " +
                       (got == analytics.end() ? std::string("missing")
                                               : std::to_string(got->second)) +
                       ", expected " + std::to_string(value));
      }
    }
  }
}

JobOut run_job(const Spec& s, Pool& pool, const std::string& xml,
               const std::string& dir, bool traced, RunResult& out) {
  JobOut job;
  job.traced = traced;
  std::filesystem::remove_all(dir);

  std::unique_ptr<trace::Tracer> tracer;
  if (traced) {
    trace::TracerOptions topts;
    topts.ring_capacity = std::size_t{1} << 17;
    tracer = std::make_unique<trace::Tracer>(topts);
  }
  trace::ScopedTracer scope(tracer.get());
  JobCtx ctx;
  ctx.spec = &s;
  ctx.pool = &pool;
  ctx.tracer = tracer.get();
  if (tracer) ctx.epoch = now_s() - tracer->wall_now();
  const trace::EntityId main_lane{trace::EntityType::kShmClient, kMainLane};

  ctx.cpus = layout_cpus();
  if (!ctx.cpus.empty()) pin_self({ctx.cpus[kClients]});
  const double t0 = now_s();
  auto cfg = config::Config::from_string(xml);
  const double t_parse = now_s();
  if (!cfg.is_ok()) {
    out.fail_check("config: " + cfg.status().to_string());
    return job;
  }
  core::NodeOptions nopts;
  nopts.output_dir = dir;
  nopts.file_prefix = "bench";
  auto node = std::make_unique<core::DamarisNode>(std::move(cfg.value()),
                                                  kClients, nopts);
  const double s0 = now_s();
  const Status started = node->start();
  const double t1 = now_s();
  pin_self(ctx.cpus);
  record(ctx, main_lane, kSpanStart, s0, t1, 0, -1);
  if (!started.is_ok()) {
    out.fail_check("start: " + started.to_string());
    return job;
  }
  job.setup_s = t1 - t0;
  job.parse_s = t_parse - t0;
  ctx.node = node.get();

  job.logs.resize(kClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back(client_main, std::cref(ctx), c,
                         std::ref(job.logs[c]));
  }
  for (std::thread& t : threads) t.join();
  const double x0 = now_s();
  const Status stopped = node->stop();
  const double t2 = now_s();
  record(ctx, main_lane, kSpanStop, x0, t2, 0, -1);
  job.run_s = t2 - t1;
  if (!stopped.is_ok()) out.fail_check("stop: " + stopped.to_string());

  job.stats = node->stats();
  job.spare = job.stats.spare_fraction();
  job.plugins = node->plugin_stats();
  job.peak_used_mib =
      static_cast<double>(node->buffer().peak_used()) / (1024.0 * 1024.0);
  for (int c = 0; c < kClients; ++c) {
    job.alloc_stalls += node->client_stats(c).alloc_stalls;
  }
  if (tracer) {
    job.events = tracer->drain();
    job.trace_overwritten = tracer->overwritten();
  }

  std::uint64_t acked = 0;
  for (const ClientLog& log : job.logs) {
    job.attempted += log.attempted;
    for (std::uint32_t m : log.acked) acked += std::popcount(m);
  }
  job.unacked = job.attempted - acked;
  if (job.stats.failed_iterations != 0) {
    out.fail_check(std::to_string(job.stats.failed_iterations) +
                   " iterations failed to persist: " +
                   job.stats.first_error.to_string());
  }
  if (job.stats.persistency.datasets_written != acked) {
    out.fail_check("persisted " +
                   std::to_string(job.stats.persistency.datasets_written) +
                   " datasets for " + std::to_string(acked) + " acked writes");
  }
  check_files(s, pool, dir, job, out);
  if (s.plugins) check_statistics(s, pool, job, node->analytics(), out);
  node.reset();
  std::filesystem::remove_all(dir);
  return job;
}

// ------------------------------------------------------------ floors

struct Floors {
  Quantile shm_warm, shm_cold;
  double encode_mib_s = 0.0, dh5_mib_s = 0.0;
  Quantile plugin;  // seconds per iteration
};

/// allocate + memcpy + push + try_pop + deallocate, the shm work of one
/// write without the middleware around it.
double shm_op(shm::SharedBuffer& buf, shm::EventQueue& q,
              std::span<const std::byte> payload) {
  const double t0 = now_s();
  auto block = buf.allocate(payload.size(), 0);
  if (!block.is_ok()) return -1.0;
  std::memcpy(buf.data(block.value()), payload.data(), payload.size());
  shm::Message msg;
  msg.type = shm::MessageType::kWriteNotification;
  msg.client_id = 0;
  msg.block = block.value();
  if (!q.push(msg)) return -1.0;
  auto popped = q.try_pop();
  if (!popped) return -1.0;
  buf.deallocate(popped->block);
  return now_s() - t0;
}

Floors measure_floors(const Spec& s, const Pool& pool,
                      const config::Config& cfg, const std::string& dir,
                      RunResult& out) {
  Floors f;
  const auto policy = cfg.buffer_policy() == "partitioned"
                          ? shm::AllocPolicy::kPartitioned
                          : shm::AllocPolicy::kMutexFirstFit;
  const auto payload = bytes_of(pool[0][0][0]);
  {
    shm::SharedBuffer buf(cfg.buffer_size(), policy, kClients);
    shm::EventQueue q;
    std::vector<double> xs;
    for (int i = 0; i < 200; ++i) shm_op(buf, q, payload);  // warm up
    const double end = now_s() + 0.3;
    while (now_s() < end && xs.size() < 20000) {
      xs.push_back(shm_op(buf, q, payload));
    }
    f.shm_warm = percentile(xs, 50.0);
  }
  {
    std::vector<double> xs;
    const double end = now_s() + 0.3;
    while (now_s() < end && xs.size() < 500) {
      auto buf = std::make_unique<shm::SharedBuffer>(cfg.buffer_size(),
                                                     policy, kClients);
      shm::EventQueue q;
      xs.push_back(shm_op(*buf, q, payload));
    }
    f.shm_cold = percentile(xs, 50.0);
  }
  if (f.shm_warm.value < 0.0 || f.shm_cold.value < 0.0) {
    out.fail_check("shm floor loop failed to allocate or push");
  }

  const format::Pipeline pipe = std::string(s.pipeline) == "lossless"
                                    ? format::Pipeline::lossless()
                                    : format::Pipeline::identity();
  {
    double bytes = 0.0;
    std::size_t encoded = 0;
    const double t0 = now_s();
    for (std::size_t k = 0; now_s() - t0 < 0.2 || k < 4; ++k) {
      const auto& field = pool[k % kClients][(k / kClients) % s.vars]
                              [k % kVariants];
      encoded += pipe.encode(bytes_of(field)).data.size();
      bytes += static_cast<double>(field.size() * sizeof(float));
    }
    f.encode_mib_s = bytes / (1024.0 * 1024.0) / (now_s() - t0);
    if (encoded == 0) out.fail_check("encode floor produced no bytes");
  }
  {
    // One iteration's datasets, pre-encoded: the container cost alone.
    std::vector<std::pair<format::DatasetInfo, format::EncodedBuffer>> sets;
    for (int c = 0; c < kClients; ++c) {
      for (int v = 0; v < s.vars; ++v) {
        format::DatasetInfo info;
        info.name = var_name(s, v);
        info.source = c;
        info.layout = *cfg.layout_of(info.name);
        sets.emplace_back(info, pipe.encode(bytes_of(pool[c][v][0])));
      }
    }
    std::filesystem::create_directories(dir);
    const std::string path = dir + "/floor.dh5";
    const double raw = static_cast<double>(sets.size() * s.elems *
                                           sizeof(float));
    double bytes = 0.0;
    const double t0 = now_s();
    for (int rep = 0; rep < 3 || now_s() - t0 < 0.2; ++rep) {
      auto w = format::Dh5Writer::create(path);
      Status st = w.status();
      for (const auto& [info, enc] : sets) {
        if (!st.is_ok()) break;
        st = w.value().add_encoded(info, enc, s.elems * sizeof(float));
      }
      if (st.is_ok()) st = w.value().finalize();
      if (!st.is_ok()) {
        out.fail_check("dh5 floor: " + st.to_string());
        break;
      }
      bytes += raw;
    }
    f.dh5_mib_s = bytes / (1024.0 * 1024.0) / (now_s() - t0);
    std::filesystem::remove_all(dir);
  }
  if (s.plugins) {
    auto chain = plugin::build_pipeline(
        cfg.plugins(), plugin::PluginRegistry::with_builtins());
    if (!chain.is_ok()) {
      out.fail_check("plugin floor: " + chain.status().to_string());
      return f;
    }
    std::vector<std::string> names;
    for (int v = 0; v < s.vars; ++v) names.push_back(var_name(s, v));
    std::vector<plugin::BlockView> views;
    for (int v = 0; v < s.vars; ++v) {
      for (int c = 0; c < kClients; ++c) {
        plugin::BlockView view;
        view.variable = names[v];
        view.source = c;
        view.layout = cfg.layout_of(names[v]);
        view.data = bytes_of(pool[c][v][0]);
        views.push_back(view);
      }
    }
    plugin::PluginContext pctx;
    pctx.publish = [](const std::string&, double) {};
    std::vector<double> xs;
    const double end = now_s() + 0.2;
    for (std::int64_t it = 0; now_s() < end || xs.size() < 5; ++it) {
      for (plugin::BlockView& view : views) view.iteration = it;
      const double t0 = now_s();
      const Status st = chain.value()->run_iteration(it, views, pctx);
      xs.push_back(now_s() - t0);
      if (!st.is_ok()) out.fail_check("plugin floor: " + st.to_string());
    }
    f.plugin = percentile(xs, 50.0);
  }
  return f;
}

// ------------------------------------------------------- aggregation

std::vector<double> pooled(const std::vector<const JobOut*>& jobs,
                           std::vector<double> ClientLog::*field) {
  std::vector<double> xs;
  for (const JobOut* j : jobs) {
    for (const ClientLog& log : j->logs) {
      xs.insert(xs.end(), (log.*field).begin(), (log.*field).end());
    }
  }
  return xs;
}

std::vector<double> per_job(const std::vector<const JobOut*>& jobs,
                            double JobOut::*field) {
  std::vector<double> xs;
  for (const JobOut* j : jobs) xs.push_back(j->*field);
  return xs;
}

void add_quantile(RunResult& out, const std::string& name,
                  std::vector<double> xs, double p, double scale,
                  const char* unit) {
  const Quantile q = percentile(std::move(xs), p);
  out.add(name, q.value * scale, unit, q.n, q.beyond);
}

void end_to_end(RunResult& out, const std::vector<const JobOut*>& jobs) {
  out.add("setup_s", median(per_job(jobs, &JobOut::setup_s)), "s",
          jobs.size());
  const auto lat = pooled(jobs, &ClientLog::write_lat);
  add_quantile(out, "write_p50_us", lat, 50.0, 1e6, "us");
  add_quantile(out, "write_p99_us", lat, 99.0, 1e6, "us");
  const auto phase = pooled(jobs, &ClientLog::phase);
  add_quantile(out, "phase_p50_ms", phase, 50.0, 1e3, "ms");
  add_quantile(out, "phase_p99_ms", phase, 99.0, 1e3, "ms");
  out.add("run_s", median(per_job(jobs, &JobOut::run_s)), "s", jobs.size());
  out.add("spare_frac", median(per_job(jobs, &JobOut::spare)), "fraction",
          jobs.size());
  out.add("peak_rss_mib", peak_rss_mib(), "MiB", 1);
}

/// Span durations (seconds) of one benchmark span name, over traced jobs.
std::vector<double> span_durations(const std::vector<const JobOut*>& jobs,
                                   const char* name) {
  std::vector<double> xs;
  for (const JobOut* j : jobs) {
    for (const trace::TraceEvent& ev : j->events) {
      if (ev.kind == trace::EventKind::kSpan && ev.name == name &&
          ev.phase >= kWarmupIterations) {
        xs.push_back(ev.dur);
      }
    }
  }
  return xs;
}

/// Per span name: count, total and self seconds over the traced jobs
/// (self = duration minus direct children on the same lane).
void span_breakdown(RunResult& out, const std::vector<const JobOut*>& jobs) {
  std::map<std::string, int> ids;
  std::vector<std::string> names;
  std::vector<double> total, self_sum, phase_self;
  std::vector<std::size_t> count;
  std::uint64_t overwritten = 0;
  for (const JobOut* j : jobs) {
    std::vector<SpanRec> spans;
    std::vector<std::int32_t> iteration;
    for (const trace::TraceEvent& ev : j->events) {
      if (ev.kind != trace::EventKind::kSpan) continue;
      iteration.push_back(ev.phase);
      auto [it, fresh] = ids.emplace(ev.name, static_cast<int>(names.size()));
      if (fresh) {
        names.push_back(ev.name);
        total.push_back(0.0);
        self_sum.push_back(0.0);
        count.push_back(0);
      }
      spans.push_back({ev.entity.key(), it->second, ev.t, ev.dur});
    }
    const std::vector<double> self = self_times(spans);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const auto n = static_cast<std::size_t>(spans[i].name);
      total[n] += spans[i].dur;
      self_sum[n] += self[i];
      ++count[n];
      if (names[n] == kSpanPhase && iteration[i] >= kWarmupIterations) {
        phase_self.push_back(self[i]);
      }
    }
    overwritten += j->trace_overwritten;
  }
  for (std::size_t n = 0; n < names.size(); ++n) {
    char line[160];
    std::snprintf(line, sizeof line,
                  "span %-18s n=%-8zu total=%10.6fs self=%10.6fs",
                  names[n].c_str(), count[n], total[n], self_sum[n]);
    out.notes.push_back(line);
  }
  if (overwritten > 0) {
    out.notes.push_back("trace rings overwrote " + std::to_string(overwritten) +
                        " events; span totals are partial");
  }
  add_quantile(out, "trace.phase_self_us", phase_self, 50.0, 1e6, "us");
}

void per_layer(RunResult& out, const Spec& s, const Floors& floors,
               const std::vector<const JobOut*>& untraced,
               const std::vector<const JobOut*>& traced,
               const std::vector<const JobOut*>& all) {
  const double mib = 1024.0 * 1024.0;
  out.add("shm.floor_warm_us", floors.shm_warm.value * 1e6, "us",
          floors.shm_warm.n);
  out.add("shm.floor_cold_us", floors.shm_cold.value * 1e6, "us",
          floors.shm_cold.n);
  const Quantile write_p50 =
      percentile(pooled(untraced, &ClientLog::write_lat), 50.0);
  out.add("core.handoff_us",
          handoff_over_floor(write_p50.value, floors.shm_warm.value) * 1e6,
          "us", write_p50.n);
  add_quantile(out, "core.end_iteration_us", span_durations(traced, kSpanEnd),
               50.0, 1e6, "us");
  add_quantile(out, "core.alloc_us", span_durations(traced, kSpanAlloc), 50.0,
               1e6, "us");
  add_quantile(out, "core.commit_us", span_durations(traced, kSpanCommit),
               50.0, 1e6, "us");
  add_quantile(out, "core.submit_us", span_durations(traced, kSpanAsync),
               50.0, 1e6, "us");
  add_quantile(out, "core.fence_ms",
               s.api == Api::kAsync ? span_durations(traced, kSpanEnd)
                                    : std::vector<double>{},
               50.0, 1e3, "ms");

  std::uint64_t stalls = 0, attempted = 0, failed = 0;
  double peak_used = 0.0;
  for (const JobOut* j : all) {
    stalls += j->alloc_stalls;
    peak_used = std::max(peak_used, j->peak_used_mib);
    attempted += j->attempted;
    failed += j->unacked + j->readback_bad;
  }
  out.add("shm.alloc_stalls", static_cast<double>(stalls), "count",
          all.size());
  out.add("shm.peak_used_mib", peak_used, "MiB", all.size());
  out.add("write_fail_frac",
          attempted == 0 ? 0.0
                         : static_cast<double>(failed) /
                               static_cast<double>(attempted),
          "fraction", attempted);

  // Stage counters and iteration records of the traced jobs.
  iopath::StageCounters transform, storage;
  core::PersistencyStats persisted;
  std::vector<double> persist_s, chain_s, files, messages;
  std::map<std::string, std::pair<double, std::uint64_t>> plugin_time;
  std::uint64_t iterations = 0;
  for (const JobOut* j : traced) {
    transform.merge(j->stats.stages.of(iopath::StageKind::kTransform));
    storage.merge(j->stats.stages.of(iopath::StageKind::kStorage));
    persisted.raw_bytes += j->stats.persistency.raw_bytes;
    persisted.stored_bytes += j->stats.persistency.stored_bytes;
    files.push_back(static_cast<double>(j->stats.persistency.files_written));
    messages.push_back(static_cast<double>(j->stats.messages_handled));
    for (const core::IterationRecord& rec : j->stats.iterations) {
      persist_s.push_back(rec.write_seconds);
      chain_s.push_back(rec.plugin_seconds);
      ++iterations;
    }
    for (const plugin::PluginStats& p : j->plugins) {
      plugin_time[p.name].first += p.seconds;
      plugin_time[p.name].second += p.iterations;
    }
  }
  const double iters = std::max<double>(1.0, static_cast<double>(iterations));
  out.add("format.encode_ms", transform.seconds / iters * 1e3, "ms",
          iterations);
  out.add("format.encode_mib_s",
          transform.seconds > 0.0
              ? static_cast<double>(transform.bytes_in) / mib /
                    transform.seconds
              : 0.0,
          "MiB/s", transform.ops);
  out.add("format.ratio", persisted.compression_ratio(), "ratio", iterations);
  out.add("format.encode_floor_mib_s", floors.encode_mib_s, "MiB/s", 1);
  out.add("format.store_ms", storage.seconds / iters * 1e3, "ms", iterations);
  out.add("format.store_mib_s",
          storage.seconds > 0.0
              ? static_cast<double>(storage.bytes_in) / mib / storage.seconds
              : 0.0,
          "MiB/s", storage.ops);
  out.add("format.files", median(files), "count", files.size());
  out.add("format.dh5_floor_mib_s", floors.dh5_mib_s, "MiB/s", 1);
  add_quantile(out, "plugin.chain_ms", s.plugins ? chain_s : std::vector<double>{},
               50.0, 1e3, "ms");
  for (const char* name : {"statistics", "minmax_index"}) {
    const auto& [secs, n] = plugin_time[name];
    out.add(std::string("plugin.") + name + "_ms",
            n == 0 ? 0.0 : secs / static_cast<double>(n) * 1e3, "ms", n);
  }
  out.add("plugin.floor_ms", floors.plugin.value * 1e3, "ms", floors.plugin.n);
  add_quantile(out, "server.persist_ms", persist_s, 50.0, 1e3, "ms");
  out.add("server.messages", median(messages), "count", messages.size());
  out.add("config.parse_ms", median(per_job(all, &JobOut::parse_s)) * 1e3,
          "ms", all.size());
  const double base = median(per_job(untraced, &JobOut::run_s));
  const double with = median(per_job(traced, &JobOut::run_s));
  out.add("trace.overhead_frac", base > 0.0 ? with / base - 1.0 : 0.0,
          "fraction", traced.size());
  span_breakdown(out, traced);
}

}  // namespace

RunResult run_middleware(const Options& opts) {
  RunResult out;
  const Spec* spec = nullptr;
  for (const Spec& s : kSpecs) {
    if (opts.workload == s.name) spec = &s;
  }
  if (spec == nullptr) {
    out.fail_check("unknown workload " + opts.workload);
    return out;
  }
  const Spec& s = *spec;
  Pool pool = make_pool(s, opts.seed);
  const std::string xml = make_xml(s);
  const std::string dir = opts.out_dir + "/" + s.name + "-" +
                          std::to_string(::getpid());
  const double t_begin = now_s();

  Floors floors;
  if (opts.trace) {
    auto cfg = config::Config::from_string(xml);
    if (!cfg.is_ok()) {
      out.fail_check("config: " + cfg.status().to_string());
      return out;
    }
    floors = measure_floors(s, pool, cfg.value(), dir, out);
  }

  // Untraced runs time jobs back to back; traced runs alternate an
  // untraced and a traced job, so both see the same machine state.
  std::vector<JobOut> jobs;
  const std::size_t min_jobs = opts.trace ? 4 : 3;
  while (jobs.size() < min_jobs || now_s() - t_begin < opts.seconds) {
    const bool traced = opts.trace && jobs.size() % 2 == 1;
    jobs.push_back(run_job(s, pool, xml,
                           dir + "/job" + std::to_string(jobs.size()), traced,
                           out));
    if (!out.correct) break;
  }
  std::filesystem::remove_all(dir);

  std::vector<const JobOut*> all, untraced, traced;
  for (const JobOut& j : jobs) {
    char line[200];
    std::snprintf(line, sizeof line,
                  "job%s setup=%.6fs run=%.4fs spare=%.4f write_p50=%.3fus "
                  "phase_p50=%.4fms stalls=%llu unacked=%llu",
                  j.traced ? " (traced)" : "", j.setup_s, j.run_s, j.spare,
                  median(pooled({&j}, &ClientLog::write_lat)) * 1e6,
                  median(pooled({&j}, &ClientLog::phase)) * 1e3,
                  static_cast<unsigned long long>(j.alloc_stalls),
                  static_cast<unsigned long long>(j.unacked));
    out.notes.push_back(line);
    all.push_back(&j);
    (j.traced ? traced : untraced).push_back(&j);
    out.attempted += j.attempted;
    out.failed += j.unacked + j.readback_bad;
  }
  if (opts.trace) {
    per_layer(out, s, floors, untraced, traced, all);
  } else {
    end_to_end(out, untraced);
  }
  out.notes.push_back("jobs: " + std::to_string(untraced.size()) +
                      " untraced, " + std::to_string(traced.size()) +
                      " traced, " + std::to_string(s.iterations) +
                      " iterations x " + std::to_string(kClients) +
                      " clients each");
  return out;
}

}  // namespace perfbench
