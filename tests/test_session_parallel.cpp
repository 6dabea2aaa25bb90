// The determinism contract of SessionConfig::worker_threads: it sizes only
// the pool that builds the session's workload bundle (the video-store size
// tables), which are bit-identical at any pool size, and the per-tick
// pipeline runs serially. So a session's outcome must be bit-for-bit
// identical for every thread count.
#include <gtest/gtest.h>

#include <cstddef>
#include <utility>

#include "core/session.h"
#include "fault/fault_plan.h"
#include "session_compare.h"

namespace volcast::core {
namespace {

SessionConfig fast_config() {
  SessionConfig c;
  c.user_count = 3;
  c.duration_s = 3.0;
  c.master_points = 40'000;
  c.video_frames = 30;
  return c;
}

SessionResult run_with_threads(SessionConfig c, std::size_t threads) {
  c.worker_threads = threads;
  Session session(std::move(c));
  return session.run();
}

// The heaviest config in the test suite: multi-AP, chaos fault plan at
// intensity 1.5 — every fallback path in the pipeline fires, so every
// fault tally is exercised.
SessionConfig chaos_config() {
  SessionConfig c = fast_config();
  c.ap_count = 2;
  c.user_count = 4;
  c.duration_s = 4.0;
  fault::ChaosConfig chaos;
  chaos.seed = c.seed;
  chaos.duration_s = c.duration_s;
  chaos.user_count = c.user_count;
  chaos.ap_count = c.ap_count;
  chaos.intensity = 1.5;
  c.fault_plan = fault::random_plan(chaos);
  return c;
}

TEST(SessionParallel, ChaosRunBitIdenticalAcrossThreadCounts) {
  const SessionResult serial = run_with_threads(chaos_config(), 1);
  const SessionResult two = run_with_threads(chaos_config(), 2);
  const SessionResult eight = run_with_threads(chaos_config(), 8);
  expect_identical(serial, two);
  expect_identical(serial, eight);
}

TEST(SessionParallel, FaultFreeRunBitIdenticalAcrossThreadCounts) {
  SessionConfig c = fast_config();
  c.user_count = 4;
  const SessionResult serial = run_with_threads(c, 1);
  const SessionResult four = run_with_threads(c, 4);
  expect_identical(serial, four);
}

TEST(SessionParallel, DefaultThreadCountMatchesSerial) {
  // worker_threads = 0 resolves to hardware concurrency; still bit-exact.
  SessionConfig c = fast_config();
  const SessionResult serial = run_with_threads(c, 1);
  const SessionResult automatic = run_with_threads(c, 0);
  expect_identical(serial, automatic);
}

}  // namespace
}  // namespace volcast::core
