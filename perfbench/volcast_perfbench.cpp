// volcast benchmark driver: runs one named workload through the public API
// (Session, run_fleet, WorkloadBundle::build), times it from outside the
// library, checks that every run produced the same result, and prints one
// JSON line of metrics.
//
//   volcast_perfbench --workload crowd16 --seed 7 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics: host wall time of set-up, run
// and every tick (from SessionConfig::tick_observer), peak RSS, and the
// deterministic QoE outcome. --trace 1 prints the per-layer metrics from a
// separate traced run: every pipeline slot is wrapped by a timing policy
// registered through PolicyRegistry::add, which delegates to the slot's
// real policy, and the library's own obs counters are read through
// SessionConfig::telemetry. Nothing inside the library is instrumented for
// this driver. --smoke shrinks every workload to a few ticks.
//
// The loop is closed: each tick starts when the previous one ends, and the
// fleet's arrival schedule is logical, so the numbers are work done at a
// fixed input size, not latency at an offered rate.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "core/fleet.h"
#include "core/session.h"
#include "core/stages/registry.h"
#include "core/stages/stage.h"
#include "core/workload_bundle.h"
#include "fault/fault_plan.h"
#include "obs/telemetry.h"
#include "pointcloud/codec.h"
#include "pointcloud/tile_cache.h"
#include "pointcloud/video_generator.h"

namespace {

using namespace volcast;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------------------
// Result digest: FNV-1a64 over every SessionResult / FleetResult field, with
// doubles as raw IEEE-754 bits, so any behavioural change shows.

class Digest {
 public:
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(const std::string& s) {
    u64(s.size());
    for (char c : s) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 0x100000001b3ull;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

void hash_result(Digest& d, const core::SessionResult& r) {
  d.f64(r.qoe.duration_s);
  d.u64(r.qoe.users.size());
  for (const sim::UserQoe& q : r.qoe.users) {
    d.u64(q.user);
    d.f64(q.displayed_fps);
    d.f64(q.stall_time_s);
    d.f64(q.stall_ratio);
    d.f64(q.mean_quality_tier);
    d.u64(q.quality_switches);
    d.f64(q.mean_goodput_mbps);
    d.f64(q.viewport_miss_ratio);
    d.f64(q.mean_m2p_latency_s);
    d.f64(q.max_m2p_latency_s);
  }
  d.f64(r.multicast_bit_share);
  d.f64(r.mean_group_size);
  d.u64(r.custom_beam_uses);
  d.u64(r.stock_beam_uses);
  d.u64(r.blockage_forecasts);
  d.u64(r.reflection_switches);
  d.u64(r.dropped_ticks);
  d.u64(r.outage_user_ticks);
  d.u64(r.sls_sweeps);
  d.u64(r.sls_outage_ticks);
  d.f64(r.mean_airtime_utilization);

  const fault::FaultReport& f = r.faults;
  d.u64(f.faults_injected);
  d.u64(f.recoveries);
  d.f64(f.mean_time_to_recover_s);
  d.f64(f.max_time_to_recover_s);
  d.f64(f.fault_rebuffer_s);
  d.u64(f.group_reformations);
  d.u64(f.concealed_frames);
  d.u64(f.skipped_frames);
  d.u64(f.probe_retries);
  d.u64(f.fallback_stock_beams);
  d.u64(f.fallback_reflection_beams);
  d.u64(f.fallback_tier_drops);
  d.u64(f.degraded_user_ticks);
  d.u64(f.unhealthy_user_ticks);
  d.u64(f.health_transitions);

  const transport::TransportReport& t = r.transport;
  d.u64(t.trains);
  d.u64(t.tiles);
  d.u64(t.data_packets);
  d.u64(t.parity_packets);
  d.u64(t.lost_packets);
  d.u64(t.retransmitted_packets);
  d.u64(t.nacks);
  d.u64(t.fec_recovered_tiles);
  d.u64(t.nack_recovered_tiles);
  d.u64(t.deadline_missed_tiles);
  d.f64(t.residual_loss_mean);
  d.f64(t.recovery_ms_p50);
  d.f64(t.recovery_ms_p99);
  d.f64(t.recovery_ms_max);

  const vv::TileReport& tiles = r.tiles;
  d.u64(tiles.requests);
  d.u64(tiles.encoded_tiles);
  d.u64(tiles.stitched_tiles);
  d.u64(tiles.encoded_bytes);
  d.u64(tiles.stitched_bytes);

  const core::overload::OverloadReport& o = r.overload;
  d.u64(o.green_ticks);
  d.u64(o.yellow_ticks);
  d.u64(o.orange_ticks);
  d.u64(o.red_ticks);
  d.u64(o.transitions);
  d.u64(o.tier_capped_user_ticks);
  d.u64(o.cells_shed);
  d.u64(o.deferred_tiles);
  d.f64(o.peak_utilization);
  d.u64(o.final_level);
}

std::uint64_t session_digest(const core::SessionResult& r) {
  Digest d;
  hash_result(d, r);
  return d.value();
}

std::uint64_t fleet_digest(const core::FleetResult& r) {
  Digest d;
  d.u64(r.sessions.size());
  for (const core::SessionResult& s : r.sessions) hash_result(d, s);
  for (const core::SlotOutcome& o : r.outcomes) {
    d.u64(static_cast<std::uint64_t>(o.status));
    d.u64(static_cast<std::uint64_t>(o.error_class));
    d.str(o.message);
    d.u64(o.attempts);
    d.u64(o.seed);
    d.u64(o.backoff_ticks);
    d.u64(static_cast<std::uint64_t>(o.admission));
    d.u64(o.admission_wait_ticks);
  }
  d.u64(r.aborted_slots);
  d.u64(r.retried_slots);
  d.u64(r.quarantined_slots);
  d.u64(r.denied_slots);
  d.u64(r.queued_slots);
  d.u64(r.total_users);
  d.u64(r.supported_users);
  d.f64(r.mean_displayed_fps);
  d.f64(r.mean_stall_ratio);
  d.f64(r.mean_quality_tier);
  d.f64(r.p5_displayed_fps);
  d.f64(r.p50_displayed_fps);
  d.f64(r.p95_displayed_fps);
  d.f64(r.p95_stall_time_s);
  d.u64(r.tiles.requests);
  d.u64(r.tiles.encoded_tiles);
  d.u64(r.tiles.stitched_tiles);
  d.u64(r.tiles.encoded_bytes);
  d.u64(r.tiles.stitched_bytes);
  return d.value();
}

// ---------------------------------------------------------------------------
// Per-slot timing: a Stage that delegates to the slot's real policy and
// records the wall time of each run() call. Registered under
// "perfbench:<real name>" so a traced config differs from the plain one
// only in its policy_overrides.

struct SlotTimes {
  std::mutex mu;
  std::array<std::vector<double>, core::kStageKindCount> us;

  void clear() {
    std::lock_guard<std::mutex> lock(mu);
    for (auto& v : us) v.clear();
  }
};

SlotTimes& slot_times() {
  static SlotTimes times;
  return times;
}

class TimedStage final : public core::Stage {
 public:
  explicit TimedStage(std::unique_ptr<core::Stage> inner)
      : inner_(std::move(inner)) {}
  ~TimedStage() override {
    SlotTimes& sink = slot_times();
    std::lock_guard<std::mutex> lock(sink.mu);
    auto& all = sink.us[static_cast<std::size_t>(inner_->kind())];
    all.insert(all.end(), local_.begin(), local_.end());
  }
  TimedStage(const TimedStage&) = delete;
  TimedStage& operator=(const TimedStage&) = delete;

  [[nodiscard]] core::StageKind kind() const noexcept override {
    return inner_->kind();
  }
  [[nodiscard]] std::string_view name() const noexcept override {
    return inner_->name();
  }
  void run(core::SessionState& state, core::TickContext& ctx) override {
    const Clock::time_point start = Clock::now();
    inner_->run(state, ctx);
    local_.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - start)
            .count());
  }

 private:
  std::unique_ptr<core::Stage> inner_;
  std::vector<double> local_;  // one sample per tick, this session only
};

constexpr std::array<core::StageKind, core::kStageKindCount> kSlots = {
    core::StageKind::kOverload,   core::StageKind::kPrediction,
    core::StageKind::kBeam,       core::StageKind::kAdaptation,
    core::StageKind::kMitigation, core::StageKind::kGrouping,
    core::StageKind::kTiling,     core::StageKind::kTransport,
};

/// Points `kind`'s slot of `c` at a `Wrapper` around the policy it would
/// otherwise run, registered as "<prefix><real name>" on first use.
template <typename Wrapper>
void wrap_slot(core::SessionConfig& c, core::StageKind kind,
               const std::string& prefix) {
  core::PolicyRegistry& registry = core::PolicyRegistry::instance();
  const std::string slot(core::to_string(kind));
  std::string real = core::default_policy(kind, c);
  if (const auto it = c.policy_overrides.find(slot);
      it != c.policy_overrides.end())
    real = it->second;
  const std::string wrapped = prefix + real;
  if (!registry.contains(kind, wrapped)) {
    registry.add(kind, wrapped, [kind, real](const core::SessionConfig& sc) {
      return std::make_unique<Wrapper>(
          core::PolicyRegistry::instance().create(kind, real, sc));
    });
  }
  c.policy_overrides[slot] = wrapped;
}

/// The config with every slot's policy replaced by its timing wrapper.
core::SessionConfig traced_config(core::SessionConfig c) {
  for (core::StageKind kind : kSlots)
    wrap_slot<TimedStage>(c, kind, "perfbench:");
  return c;
}

// The fleet's stand-in for SessionConfig::tick_observer, which run_fleet
// rejects: the transport slot runs last in a tick, so the host time from
// one of its returns to the next is one tick. The first interval starts
// when the pipeline is built, just before run().

struct TickLog {
  std::mutex mu;
  std::vector<double> ms;

  std::vector<double> take() {
    std::lock_guard<std::mutex> lock(mu);
    return std::exchange(ms, {});
  }
};

TickLog& tick_log() {
  static TickLog log;
  return log;
}

class TickClockStage final : public core::Stage {
 public:
  explicit TickClockStage(std::unique_ptr<core::Stage> inner)
      : inner_(std::move(inner)), last_(Clock::now()) {}
  ~TickClockStage() override {
    TickLog& log = tick_log();
    std::lock_guard<std::mutex> lock(log.mu);
    log.ms.insert(log.ms.end(), local_.begin(), local_.end());
  }
  TickClockStage(const TickClockStage&) = delete;
  TickClockStage& operator=(const TickClockStage&) = delete;

  [[nodiscard]] core::StageKind kind() const noexcept override {
    return inner_->kind();
  }
  [[nodiscard]] std::string_view name() const noexcept override {
    return inner_->name();
  }
  void run(core::SessionState& state, core::TickContext& ctx) override {
    inner_->run(state, ctx);
    const Clock::time_point now = Clock::now();
    local_.push_back(
        std::chrono::duration<double, std::milli>(now - last_).count());
    last_ = now;
  }

 private:
  std::unique_ptr<core::Stage> inner_;
  Clock::time_point last_;
  std::vector<double> local_;
};

// ---------------------------------------------------------------------------
// Workloads.

struct Workload {
  std::string name;
  bool fleet = false;
  core::SessionConfig session;
  std::size_t slots = 1;     // fleet only
  std::size_t parallel = 1;  // fleet only
};

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// The audience (SessionConfig::seed: seats, mobility, shadowing) and the
/// fault timeline are fixed parts of each workload. --seed picks the video
/// content the audience watches. Letting --seed move the audience too
/// swings a 16-user session's run time by about 40% and its stall ratio
/// two-fold between seeds, more than any regression bound could absorb.
constexpr std::uint64_t kAudienceSeed = 1;

std::optional<Workload> make_workload(const std::string& name,
                                      std::uint64_t seed, bool smoke) {
  Workload w;
  w.name = name;
  core::SessionConfig& c = w.session;
  c.seed = kAudienceSeed;
  c.content_seed = mix(seed) | 1u;  // nonzero: pinned content
  if (name == "crowd16") {
    // Radio- and grouping-bound: 16 headsets on one AP, greedy-IoU
    // multicast with custom beams, goodput transport, tiling off. Run by
    // hand only: its host time swings too much between runs on a shared
    // host for a regression bound (perfbench/interaction_map.json).
    c.user_count = 16;
    c.ap_count = 1;
    c.duration_s = 8.0;
    c.grouping = core::GroupingPolicy::kGreedyIoU;
    c.enable_custom_beams = true;
    c.worker_threads = 2;
  } else if (name == "unicast_wire") {
    // Tiling-bound (write-heavy cache), multicast off: packet wire under
    // burst loss, brownout governor under CPU pressure, tile corruption.
    c.user_count = 12;
    c.duration_s = 16.0;
    c.grouping = core::GroupingPolicy::kUnicastOnly;
    c.policy_overrides["tiling"] = "shared";
    c.policy_overrides["transport"] = "hybrid";
    c.overload.enabled = true;
    c.worker_threads = 1;
  } else if (name == "fleet_shared") {
    // Set-up amortised across slots, read-heavy shared tile cache, fleet
    // thread-pool scaling.
    w.fleet = true;
    w.slots = 8;
    w.parallel = 2;
    c.user_count = 4;
    c.duration_s = 4.0;
    c.policy_overrides["tiling"] = "shared";
    c.policy_overrides["transport"] = "hybrid";
    c.worker_threads = 1;
  } else {
    return std::nullopt;
  }
  if (smoke) {
    c.duration_s = 0.5;
    c.master_points = 20'000;
    c.video_frames = 10;
    w.slots = std::min<std::size_t>(w.slots, 3);
  }
  if (name == "unicast_wire") {
    fault::ChaosConfig chaos;
    chaos.seed = kAudienceSeed;
    chaos.duration_s = c.duration_s;
    chaos.user_count = c.user_count;
    chaos.ap_count = c.ap_count;
    chaos.burst_loss_probability = 0.5;
    chaos.cpu_pressure = 3.0;
    chaos.tile_corruption = 0.2;
    c.fault_plan = fault::random_plan(chaos);
  }
  return w;
}

std::size_t ticks_of(const core::SessionConfig& c) {
  return static_cast<std::size_t>(std::llround(c.duration_s * c.fps));
}

// ---------------------------------------------------------------------------
// One execution of a workload.

struct Run {
  double setup_s = 0.0;
  double run_s = 0.0;
  std::vector<double> tick_ms;  // host wall time per tick (sessions only)
  std::uint64_t digest = 0;
  std::vector<std::uint64_t> slot_digests;
  std::vector<core::SessionResult> results;  // one per slot
  std::size_t aborted = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t corrupt_rejected = 0;
  double peak_rss_mb = 0.0;
};

struct RunOptions {
  std::size_t worker_threads = 0;  // 0 = the workload's own
  std::size_t parallel = 0;        // 0 = the workload's own
  std::size_t slots = 0;           // 0 = the workload's own (fleet)
  bool traced = false;
  obs::Telemetry* telemetry = nullptr;  // sessions only
};

void note_cache(Run& run, const vv::TileCache& cache) {
  run.cache_hits = cache.stats().hits.load();
  run.cache_misses = cache.stats().misses.load();
  run.corrupt_rejected = cache.stats().corrupt_rejected.load();
}

Run run_session(const Workload& w, const RunOptions& opt) {
  core::SessionConfig c = w.session;
  if (opt.worker_threads != 0) c.worker_threads = opt.worker_threads;
  if (opt.traced) c = traced_config(std::move(c));
  c.telemetry = opt.telemetry;
  vv::TileCache cache;
  c.tile_cache = &cache;

  Run run;
  const std::size_t last_user = c.user_count - 1;
  Clock::time_point tick_start;
  c.tick_observer = [&](const core::TickSample& s) {
    if (s.user != last_user) return;
    const Clock::time_point now = Clock::now();
    run.tick_ms.push_back(
        std::chrono::duration<double, std::milli>(now - tick_start).count());
    tick_start = now;
  };
  const Clock::time_point t0 = Clock::now();
  core::Session session(std::move(c));
  const Clock::time_point t1 = Clock::now();
  tick_start = t1;
  const core::SessionResult result = session.run();
  const Clock::time_point t2 = Clock::now();
  run.setup_s = seconds_between(t0, t1);
  run.run_s = seconds_between(t1, t2);
  run.digest = session_digest(result);
  run.slot_digests = {run.digest};
  run.results = {result};
  note_cache(run, cache);
  return run;
}

Run run_fleet_once(const Workload& w, const RunOptions& opt) {
  core::FleetConfig f;
  f.session = w.session;
  if (opt.worker_threads != 0) f.session.worker_threads = opt.worker_threads;
  if (opt.traced)
    f.session = traced_config(std::move(f.session));
  else
    wrap_slot<TickClockStage>(f.session, core::StageKind::kTransport,
                              "perfbench-tick:");
  (void)tick_log().take();
  f.sessions = opt.slots != 0 ? opt.slots : w.slots;
  f.parallel_sessions = opt.parallel != 0 ? opt.parallel : w.parallel;
  // The benchmark owns the shared tile cache: run_fleet only builds its
  // own when the tiling slot is literally named "shared", which the timing
  // wrapper renames.
  vv::TileCache cache;
  f.session.tile_cache = &cache;

  Run run;
  const Clock::time_point t0 = Clock::now();
  // The content is pinned, so the benchmark builds the one bundle every
  // slot reads, and that build is the fleet's set-up time.
  f.session.bundle = core::WorkloadBundle::build(f.session);
  const Clock::time_point t1 = Clock::now();
  const core::FleetResult result = core::run_fleet(f);
  const Clock::time_point t2 = Clock::now();
  run.setup_s = seconds_between(t0, t1);
  run.run_s = seconds_between(t1, t2);
  run.digest = fleet_digest(result);
  run.aborted = result.aborted_slots;
  for (const core::SessionResult& s : result.sessions)
    run.slot_digests.push_back(session_digest(s));
  run.results = result.sessions;
  run.tick_ms = tick_log().take();
  note_cache(run, cache);
  return run;
}

/// Linux keeps a resettable peak-RSS mark (VmHWM), so each repetition's
/// peak is measured on its own instead of the whole process's.
void reset_peak_rss() { std::ofstream("/proc/self/clear_refs") << "5"; }

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

Run execute(const Workload& w, const RunOptions& opt) {
  reset_peak_rss();
  Run run = w.fleet ? run_fleet_once(w, opt) : run_session(w, opt);
  run.peak_rss_mb = peak_rss_mb();
  return run;
}

// ---------------------------------------------------------------------------
// Statistics and output.

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  // Nearest rank: the smallest sample with at least q of the samples at
  // or below it.
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Metrics {
  std::vector<std::tuple<std::string, double, std::string>> rows;
  void add(std::string name, double value, std::string unit) {
    rows.emplace_back(std::move(name), value, std::move(unit));
  }
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const Metrics& m) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < m.rows.size(); ++i) {
    const auto& [name, value, unit] = m.rows[i];
    if (i > 0) out += ", ";
    out += "\"" + name + "\": {\"value\": " + json_number(value) +
           ", \"unit\": \"" + unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

// ---------------------------------------------------------------------------
// The correctness gate: every run of this invocation must reproduce the
// reference digest, slot by slot.

struct Gate {
  std::uint64_t reference = 0;
  std::vector<std::uint64_t> reference_slots;
  bool have_reference = false;
  bool ok = true;
  std::size_t attempted = 0;  // session runs (fleet slots count one each)
  std::size_t failed = 0;

  void check(const Run& run, const char* what) {
    attempted += run.slot_digests.size();
    failed += run.aborted;
    if (run.aborted > 0) {
      ok = false;
      std::printf("gate: %s: %zu slot(s) aborted\n", what, run.aborted);
    }
    if (!have_reference) {
      reference = run.digest;
      reference_slots = run.slot_digests;
      have_reference = true;
      return;
    }
    if (run.digest != reference) {
      ok = false;
      std::size_t bad = 0;
      for (std::size_t k = 0; k < run.slot_digests.size(); ++k)
        if (k >= reference_slots.size() ||
            run.slot_digests[k] != reference_slots[k])
          ++bad;
      failed += std::max<std::size_t>(bad, 1);
      std::printf("gate: %s: digest %s != reference %s\n", what,
                  hex(run.digest).c_str(), hex(reference).c_str());
    }
  }

  /// Slot-level check for runs whose aggregate shape differs from the
  /// reference (a session run against fleet slot 0, a direct replay of
  /// fleet slots): each slot digest must equal the reference slot's.
  void check_slots(const std::vector<std::uint64_t>& slots,
                   const std::vector<std::uint64_t>& expected,
                   const char* what) {
    attempted += slots.size();
    for (std::size_t k = 0; k < slots.size(); ++k) {
      if (k < expected.size() && slots[k] == expected[k]) continue;
      ok = false;
      ++failed;
      std::printf("gate: %s: slot %zu digest differs\n", what, k);
    }
  }

  void fail(const std::string& why) {
    ok = false;
    ++failed;
    std::printf("gate: %s\n", why.c_str());
  }
};

// ---------------------------------------------------------------------------
// Simulated QoE (deterministic per seed): taken from one run's results.

void add_qoe_metrics(Metrics& m, const Workload& w, const Run& run) {
  const std::size_t ticks = ticks_of(w.session);
  std::vector<double> fps;
  double stall = 0.0;
  double tier = 0.0;
  std::size_t users = 0;
  double frames = 0.0;
  double missed = 0.0;
  for (std::size_t k = 0; k < run.results.size(); ++k) {
    const auto& qoe = run.results[k].qoe;
    const double slot_frames =
        static_cast<double>(w.session.user_count * ticks);
    frames += slot_frames;
    if (qoe.users.empty()) {  // aborted or denied slot: every frame missed
      missed += slot_frames;
      continue;
    }
    double played = 0.0;
    for (const sim::UserQoe& q : qoe.users) {
      fps.push_back(q.displayed_fps);
      stall += q.stall_ratio;
      tier += q.mean_quality_tier;
      played += std::round(q.displayed_fps * qoe.duration_s);
      ++users;
    }
    missed += slot_frames - played;
  }
  EmpiricalDistribution fps_dist;
  fps_dist.add_all(fps);
  m.add("qoe_fps_p5", fps_dist.empty() ? 0.0 : fps_dist.percentile(5.0),
        "fps");
  m.add("qoe_stall_ratio", ratio(stall, static_cast<double>(users)), "ratio");
  m.add("qoe_tier_mean", ratio(tier, static_cast<double>(users)), "tier");
  m.add("frame_miss_ratio", ratio(missed, frames), "ratio");
}

// ---------------------------------------------------------------------------
// --trace 0: end-to-end metrics.

void end_to_end(const Workload& w, double budget_s, bool smoke, Gate& gate,
                Metrics& m) {
  const std::size_t min_reps = smoke ? 2 : 3;
  const std::size_t min_setups = smoke ? 2 : 5;
  // The first repetition warms the allocator, page tables and thread
  // pools; it is checked but not timed.
  gate.check(execute(w, {}), "warm-up repetition");
  std::vector<Run> runs;
  const Clock::time_point start = Clock::now();
  while (runs.size() < min_reps ||
         seconds_between(start, Clock::now()) < budget_s) {
    runs.push_back(execute(w, {}));
    gate.check(runs.back(), "timed repetition");
  }
  // Set-up is short next to a run: take extra samples so its median is
  // steady too (their runs are not timed, only checked).
  std::vector<double> setup;
  for (const Run& r : runs) setup.push_back(r.setup_s);
  while (setup.size() < min_setups) {
    const Run extra = execute(w, {});
    gate.check(extra, "set-up sample");
    setup.push_back(extra.setup_s);
  }
  // Thread invariance: a fleet reruns fully serial, a session at the other
  // worker count (1 when the workload is parallel, else 2).
  RunOptions other;
  if (w.fleet)
    other.parallel = 1;
  else
    other.worker_threads = w.session.worker_threads > 1 ? 1 : 2;
  gate.check(execute(w, other), "thread-count rerun");

  std::vector<double> run_s;
  std::vector<double> ticks;
  for (const Run& r : runs) {
    run_s.push_back(r.run_s);
    ticks.insert(ticks.end(), r.tick_ms.begin(), r.tick_ms.end());
  }
  const std::size_t expected_ticks =
      runs.size() * ticks_of(w.session) * (w.fleet ? w.slots : 1);
  if (ticks.size() != expected_ticks)
    gate.fail("tick clock saw " + std::to_string(ticks.size()) +
              " ticks, expected " + std::to_string(expected_ticks));

  m.add("setup_s", median(setup), "s");
  m.add("run_s", median(run_s), "s");
  // Ticks of all timed repetitions are pooled: at 240+ per run the p95 has
  // well over ten samples beyond it.
  const double budget_ms = 1000.0 / w.session.fps;
  const auto in_budget = static_cast<double>(std::count_if(
      ticks.begin(), ticks.end(), [&](double t) { return t <= budget_ms; }));
  m.add("tick_p50_ms", percentile(ticks, 0.50), "ms");
  m.add("tick_p95_ms", percentile(ticks, 0.95), "ms");
  m.add("tick_in_budget_share",
        ratio(in_budget, static_cast<double>(ticks.size())), "ratio");
  std::printf("ticks: %zu samples over %zu runs (p95 has %zu beyond it)\n",
              ticks.size(), runs.size(),
              ticks.size() - static_cast<std::size_t>(std::ceil(
                                 0.95 * static_cast<double>(ticks.size()))));
  std::vector<double> rss;
  for (const Run& r : runs) rss.push_back(r.peak_rss_mb);
  m.add("peak_rss_mb", median(rss), "MB");
  add_qoe_metrics(m, w, runs.front());
  std::printf("run_s per repetition:");
  for (double r : run_s) std::printf(" %.4f", r);
  std::printf("\nsetup_s per sample:");
  for (double r : setup) std::printf(" %.4f", r);
  std::printf("\npeak_rss_mb per repetition:");
  for (double r : rss) std::printf(" %.2f", r);
  std::printf("\n");
}

// ---------------------------------------------------------------------------
// --trace 1: per-layer metrics.

/// decode_soa(encode(f)) must equal f quantized with the blob's own header
/// (bit depth + bounds): the same points, each at lo + q * extent / max_q,
/// with its colour. Returns false (and says why) on any difference.
bool codec_round_trip_ok(const vv::FrameSoA& source,
                         const std::vector<std::uint8_t>& blob,
                         const vv::FrameSoA& decoded, std::string& why) {
  if (decoded.size() != source.size()) {
    why = "codec round trip changed the point count";
    return false;
  }
  if (source.empty()) return true;
  const unsigned bits = blob[8];
  double lo[3];
  double hi[3];
  for (int i = 0; i < 3; ++i) {
    std::memcpy(&lo[i], blob.data() + 10 + 8 * i, 8);
    std::memcpy(&hi[i], blob.data() + 34 + 8 * i, 8);
  }
  const double max_q = static_cast<double>((std::uint64_t{1} << bits) - 1);
  using Key = std::array<std::uint32_t, 4>;  // qx, qy, qz, packed rgb
  auto quantize = [&](const vv::FrameSoA& f, bool exact, bool& ok) {
    std::vector<Key> keys(f.size());
    const std::span<const double> cols[3] = {f.xs(), f.ys(), f.zs()};
    for (std::size_t i = 0; i < f.size(); ++i) {
      for (int a = 0; a < 3; ++a) {
        const double len = hi[a] - lo[a];
        double q = 0.0;
        if (len > 0.0)
          q = std::clamp(std::round((cols[a][i] - lo[a]) * (max_q / len)), 0.0,
                         max_q);
        keys[i][static_cast<std::size_t>(a)] = static_cast<std::uint32_t>(q);
        // A decoded coordinate must sit exactly on its grid point.
        const double grid = len > 0.0 ? lo[a] + q * (len / max_q) : lo[a];
        if (exact && cols[a][i] != grid) ok = false;
      }
      const auto rgb = f.rgb();
      keys[i][3] = (std::uint32_t{rgb[3 * i]} << 16) |
                   (std::uint32_t{rgb[3 * i + 1]} << 8) | rgb[3 * i + 2];
    }
    std::sort(keys.begin(), keys.end());
    return keys;
  };
  bool on_grid = true;
  const std::vector<Key> want = quantize(source, false, on_grid);
  const std::vector<Key> got = quantize(decoded, true, on_grid);
  if (!on_grid) {
    why = "codec round trip left a point off the quantization grid";
    return false;
  }
  if (want != got) {
    why = "codec round trip differs from the quantized source";
    return false;
  }
  return true;
}

struct SlotStat {
  double total_ms = 0.0;
  double p50_us = 0.0;
  double p95_us = 0.0;
};

std::array<SlotStat, core::kStageKindCount> collect_slot_times() {
  std::array<SlotStat, core::kStageKindCount> out{};
  SlotTimes& sink = slot_times();
  std::lock_guard<std::mutex> lock(sink.mu);
  for (std::size_t k = 0; k < core::kStageKindCount; ++k) {
    const std::vector<double>& v = sink.us[k];
    double sum = 0.0;
    for (double x : v) sum += x;
    out[k] = {sum / 1000.0, percentile(v, 0.50), percentile(v, 0.95)};
  }
  return out;
}

void per_layer(const Workload& w, double budget_s, bool smoke, Gate& gate,
               Metrics& m) {
  const Clock::time_point start = Clock::now();
  // Untraced baseline: the same repetitions --trace 0 times, for the
  // tracing overhead and the thread-scaling ratios.
  std::vector<double> plain_s;
  std::vector<double> bundle_s;
  do {
    const Run r = execute(w, {});
    gate.check(r, "untraced run");
    plain_s.push_back(r.run_s);
    if (w.fleet) bundle_s.push_back(r.setup_s);
  } while (plain_s.size() < 2 ||
           seconds_between(start, Clock::now()) < 0.3 * budget_s);
  const double plain = median(plain_s);

  // Thread scaling: worker_threads=1 against the workload's count, or
  // against 2 workers when the workload itself is serial.
  RunOptions serial_opt;
  serial_opt.worker_threads = 1;
  const Run serial = execute(w, serial_opt);
  gate.check(serial, "worker_threads=1 run");
  double parallel_s = plain;
  if (w.session.worker_threads == 1) {
    RunOptions two;
    two.worker_threads = 2;
    const Run r = execute(w, two);
    gate.check(r, "worker_threads=2 run");
    parallel_s = r.run_s;
  }
  m.add("pipeline.thread_speedup", ratio(serial.run_s, parallel_s), "x");

  // Fleet scaling: the fleet at parallel 1 vs its own parallelism; a
  // session workload runs as a two-slot fleet at parallel 1 and 2.
  if (w.fleet) {
    RunOptions p1;
    p1.parallel = 1;
    const Run r = execute(w, p1);
    gate.check(r, "parallel_sessions=1 run");
    m.add("fleet.speedup", ratio(r.run_s, plain), "x");
  } else {
    Workload as_fleet = w;
    as_fleet.fleet = true;
    RunOptions one;
    one.slots = 2;
    one.parallel = 1;
    RunOptions two = one;
    two.parallel = 2;
    const Run a = run_fleet_once(as_fleet, one);
    const Run b = run_fleet_once(as_fleet, two);
    gate.check_slots({a.slot_digests.front()}, gate.reference_slots,
                     "fleet slot 0 vs session");
    gate.check_slots(b.slot_digests, a.slot_digests,
                     "2-slot fleet parallel 2 vs 1");
    m.add("fleet.speedup", ratio(a.run_s, b.run_s), "x");
  }

  // The traced run: timing wrappers on every slot.
  slot_times().clear();
  RunOptions traced_opt;
  traced_opt.traced = true;
  obs::Telemetry telemetry(obs::TelemetryOptions{false});
  if (!w.fleet) traced_opt.telemetry = &telemetry;
  const Run traced = execute(w, traced_opt);
  gate.check(traced, "traced run");
  const auto slots = collect_slot_times();
  m.add("trace.overhead_ratio", ratio(traced.run_s, plain), "x");
  for (std::size_t k = 0; k < core::kStageKindCount; ++k) {
    const std::string slot(core::to_string(kSlots[k]));
    m.add(slot + ".ms_total", slots[k].total_ms, "ms");
    m.add(slot + ".tick_us_p50", slots[k].p50_us, "us");
    m.add(slot + ".tick_us_p95", slots[k].p95_us, "us");
  }
  double span_ms = 0.0;
  for (const SlotStat& s : slots) span_ms += s.total_ms;
  std::printf("slot share of traced time:");
  for (std::size_t k = 0; k < core::kStageKindCount; ++k)
    std::printf(" %s=%.1f%%", std::string(core::to_string(kSlots[k])).c_str(),
                100.0 * ratio(slots[k].total_ms, span_ms));
  std::printf("\n");

  // Radio counters come from the library's obs registry. A fleet rejects a
  // telemetry sink, so its slots are replayed as direct sessions (same
  // bundle, one shared cache), which must reproduce the fleet's slots.
  if (w.fleet) {
    vv::TileCache cache;
    core::SessionConfig c = w.session;
    c.bundle = core::WorkloadBundle::build(c);
    c.tile_cache = &cache;
    c.telemetry = &telemetry;
    std::vector<std::uint64_t> replay;
    for (std::size_t k = 0; k < traced.results.size(); ++k) {
      core::SessionConfig slot = c;
      slot.seed = w.session.seed + k;
      replay.push_back(session_digest(core::Session(slot).run()));
    }
    gate.check_slots(replay, gate.reference_slots, "direct slot replay");
  }
  auto counter = [&](const char* name) -> double {
    const auto& all = telemetry.metrics().counters();
    const auto it = all.find(name);
    return it == all.end() ? 0.0 : static_cast<double>(it->second->value());
  };
  const auto slot_ms = [&](core::StageKind kind) {
    return slots[static_cast<std::size_t>(kind)].total_ms;
  };
  const double rss_evals = counter("mmwave.rss_evals");
  const double designs = counter("beam.multicast_designs");
  m.add("beam.rss_evals", rss_evals, "count");
  m.add("beam.ns_per_rss_eval",
        ratio(1e6 * (slot_ms(core::StageKind::kBeam) +
                     slot_ms(core::StageKind::kGrouping)),
              rss_evals),
        "ns");
  m.add("grouping.designs", designs, "count");
  m.add("grouping.us_per_design",
        ratio(1e3 * slot_ms(core::StageKind::kGrouping), designs), "us");
  m.add("grouping.probe_reject_ratio",
        ratio(counter("beam.probe_rejects"), designs), "ratio");
  m.add("grouping.useful_design_ratio",
        ratio(counter("mac.multicast_groups"), designs), "ratio");

  // Tiling, transport and overload, summed over slots.
  vv::TileReport tiles;
  transport::TransportReport wire;
  double residual = 0.0;
  double red = 0.0;
  double shed = 0.0;
  double peak = 0.0;
  for (const core::SessionResult& r : traced.results) {
    tiles.requests += r.tiles.requests;
    tiles.encoded_tiles += r.tiles.encoded_tiles;
    tiles.stitched_tiles += r.tiles.stitched_tiles;
    wire.data_packets += r.transport.data_packets;
    wire.parity_packets += r.transport.parity_packets;
    wire.retransmitted_packets += r.transport.retransmitted_packets;
    wire.deadline_missed_tiles += r.transport.deadline_missed_tiles;
    residual += r.transport.residual_loss_mean;
    red += static_cast<double>(r.overload.red_ticks);
    shed += static_cast<double>(r.overload.tier_capped_user_ticks);
    peak = std::max(peak, r.overload.peak_utilization);
  }
  const auto slots_n = static_cast<double>(traced.results.size());
  m.add("tiling.encoded", static_cast<double>(tiles.encoded_tiles), "count");
  m.add("tiling.stitched", static_cast<double>(tiles.stitched_tiles), "count");
  m.add("tiling.corrupt_rejected",
        static_cast<double>(traced.corrupt_rejected), "count");
  m.add("tiling.hit_rate",
        ratio(static_cast<double>(traced.cache_hits),
              static_cast<double>(traced.cache_hits + traced.cache_misses)),
        "ratio");
  m.add("tiling.us_per_tile",
        ratio(1e3 * slot_ms(core::StageKind::kTiling),
              static_cast<double>(tiles.requests)),
        "us");
  const auto data = static_cast<double>(wire.data_packets);
  m.add("transport.packets",
        data + static_cast<double>(wire.parity_packets +
                                   wire.retransmitted_packets),
        "count");
  m.add("transport.parity_overhead",
        ratio(static_cast<double>(wire.parity_packets), data), "ratio");
  m.add("transport.retransmit_ratio",
        ratio(static_cast<double>(wire.retransmitted_packets), data),
        "ratio");
  m.add("transport.residual_loss", ratio(residual, slots_n), "ratio");
  m.add("transport.deadline_miss_tiles",
        static_cast<double>(wire.deadline_missed_tiles), "count");
  m.add("overload.red_ticks", red, "count");
  m.add("overload.shed_user_ticks", shed, "count");
  m.add("overload.peak_util", peak, "ratio");

  // Set-up: the bundle build, and the codec on the workload's own frames.
  std::shared_ptr<const core::WorkloadBundle> bundle;
  for (int i = 0; i < 3; ++i) {
    const Clock::time_point t0 = Clock::now();
    bundle = core::WorkloadBundle::build(w.session);
    bundle_s.push_back(seconds_between(t0, Clock::now()));
  }
  m.add("setup.bundle_build_s", median(bundle_s), "s");

  const vv::VideoGenerator& generator = bundle->generator();
  const std::size_t frames = smoke ? 2 : 6;
  double points = 0.0;
  double bytes = 0.0;
  double enc_s = 0.0;
  double dec_s = 0.0;
  for (std::size_t i = 0; i < frames; ++i) {
    const vv::FrameSoA frame =
        generator.frame_soa(i * w.session.video_frames / frames);
    const Clock::time_point t0 = Clock::now();
    const std::vector<std::uint8_t> blob = vv::encode(frame);
    const Clock::time_point t1 = Clock::now();
    const vv::FrameSoA back = vv::decode_soa(blob);
    const Clock::time_point t2 = Clock::now();
    enc_s += seconds_between(t0, t1);
    dec_s += seconds_between(t1, t2);
    points += static_cast<double>(frame.size());
    bytes += static_cast<double>(blob.size());
    std::string why;
    if (!codec_round_trip_ok(frame, blob, back, why)) gate.fail(why);
  }
  m.add("codec.encode_mpts_s", ratio(points / 1e6, enc_s), "Mpts/s");
  m.add("codec.decode_mpts_s", ratio(points / 1e6, dec_s), "Mpts/s");
  m.add("codec.bits_per_point", ratio(8.0 * bytes, points), "bit/pt");
}

int usage() {
  std::fprintf(stderr,
               "usage: volcast_perfbench --workload crowd16|unicast_wire|"
               "fleet_shared --seed N --seconds S --trace 0|1 [--smoke]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--smoke") {
      smoke = true;
    } else if (key.rfind("--", 0) == 0 && i + 1 < argc) {
      args[key.substr(2)] = argv[++i];
    } else {
      return usage();
    }
  }
  if (!args.count("workload") || !args.count("seed") ||
      !args.count("seconds") || !args.count("trace"))
    return usage();

#ifndef NDEBUG
  // CMakeLists.txt already refuses non-Release builds; flags that turn
  // assertions back on are caught here.
  std::fprintf(stderr, "volcast_perfbench: built with assertions on\n");
  return 2;
#endif

  const std::uint64_t seed = std::stoull(args["seed"]);
  const double budget_s = std::stod(args["seconds"]);
  const bool trace = args["trace"] == "1";
  const std::optional<Workload> w =
      make_workload(args["workload"], seed, smoke);
  if (!w) return usage();

  std::printf(
      "{\"provenance\": {\"nproc\": %u, \"compiler\": \"%s\", "
      "\"cxx_flags\": \"%s\", \"build_type\": \"%s\", "
      "\"volcast_native\": %s}}\n",
      std::thread::hardware_concurrency(), PERFBENCH_COMPILER,
      PERFBENCH_CXX_FLAGS, PERFBENCH_BUILD_TYPE,
      PERFBENCH_NATIVE ? "true" : "false");

  Gate gate;
  Metrics m;
  try {
    if (trace)
      per_layer(*w, budget_s, smoke, gate, m);
    else
      end_to_end(*w, budget_s, smoke, gate, m);
  } catch (const std::exception& e) {
    gate.fail(std::string("exception: ") + e.what());
  }
  std::printf("digest: %s (%s, seed %llu)\n", hex(gate.reference).c_str(),
              w->name.c_str(), static_cast<unsigned long long>(seed));
  std::fflush(stdout);
  print_result(gate.ok, std::max<std::size_t>(gate.attempted, 1),
               gate.failed, m);
  return 0;
}
