// Shared fixture for the refactor-equivalence golden suite: the ablation ×
// fault configuration matrix plus a bit-exact text serialization of
// SessionResult. The committed golden file (tests/golden/) was generated
// from the pre-refactor monolithic session loop by gen_session_goldens;
// the staged pipeline must reproduce every byte of it. Regenerate only
// when session behavior changes intentionally:
//
//   build/tests/gen_session_goldens > tests/golden/session_results.golden
#pragma once

#include <bit>
#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "core/session.h"
#include "fault/fault_plan.h"

namespace volcast::core {

struct GoldenCase {
  std::string name;
  SessionConfig config;
};

/// The determinism matrix: every ablation switch, both fault regimes
/// (clean and chaos), small enough that the whole sweep stays in test-suite
/// time. Thread counts are applied by the caller — the serialized result
/// must not depend on them.
inline std::vector<GoldenCase> golden_matrix() {
  SessionConfig base;
  base.user_count = 3;
  base.duration_s = 2.0;
  base.master_points = 30'000;
  base.video_frames = 20;
  base.seed = 7;

  std::vector<GoldenCase> cases;
  auto add = [&](std::string name, auto mutate) {
    SessionConfig c = base;
    mutate(c);
    cases.push_back({std::move(name), std::move(c)});
  };

  add("default", [](SessionConfig&) {});
  add("no_multicast", [](SessionConfig& c) { c.enable_multicast = false; });
  add("grouping_unicast",
      [](SessionConfig& c) { c.grouping = GroupingPolicy::kUnicastOnly; });
  add("grouping_pairs",
      [](SessionConfig& c) { c.grouping = GroupingPolicy::kPairsOnly; });
  add("grouping_exhaustive",
      [](SessionConfig& c) { c.grouping = GroupingPolicy::kExhaustive; });
  add("no_custom_beams",
      [](SessionConfig& c) { c.enable_custom_beams = false; });
  add("reactive_beams",
      [](SessionConfig& c) { c.predictive_beam_tracking = false; });
  add("no_mitigation",
      [](SessionConfig& c) { c.enable_blockage_mitigation = false; });
  add("no_occlusion",
      [](SessionConfig& c) { c.enable_user_occlusion = false; });
  add("adaptation_none",
      [](SessionConfig& c) { c.adaptation = AdaptationPolicy::kNone; });
  add("adaptation_buffer",
      [](SessionConfig& c) { c.adaptation = AdaptationPolicy::kBufferOnly; });
  add("estimator_app",
      [](SessionConfig& c) { c.estimator = BandwidthEstimator::kAppOnly; });
  add("estimator_phy",
      [](SessionConfig& c) { c.estimator = BandwidthEstimator::kPhyOnly; });
  add("two_aps", [](SessionConfig& c) {
    c.ap_count = 2;
    c.user_count = 4;
  });
  add("chaos", [](SessionConfig& c) {
    c.ap_count = 2;
    c.user_count = 4;
    fault::ChaosConfig chaos;
    chaos.seed = c.seed;
    chaos.duration_s = c.duration_s;
    chaos.user_count = c.user_count;
    chaos.ap_count = c.ap_count;
    chaos.intensity = 1.2;
    c.fault_plan = fault::random_plan(chaos);
  });
  // Packet-wire policies, with correlated burst loss so the loss /
  // FEC-repair / NACK machinery is all on the golden path.
  auto burst_chaos = [](SessionConfig& c) {
    fault::ChaosConfig chaos;
    chaos.seed = c.seed;
    chaos.duration_s = c.duration_s;
    chaos.user_count = c.user_count;
    chaos.ap_count = c.ap_count;
    chaos.intensity = 0.8;
    chaos.burst_loss_probability = 0.5;
    c.fault_plan = fault::random_plan(chaos);
  };
  add("wire_fec", [&](SessionConfig& c) {
    c.policy_overrides["transport"] = "fec";
    burst_chaos(c);
  });
  add("wire_nack", [&](SessionConfig& c) {
    c.policy_overrides["transport"] = "nack";
    burst_chaos(c);
  });
  add("wire_hybrid", [&](SessionConfig& c) {
    c.policy_overrides["transport"] = "hybrid";
    burst_chaos(c);
  });
  return cases;
}

/// Doubles as raw IEEE-754 bits: bit-exact, culture-independent, and a
/// mismatch in any bit is visible.
inline std::string golden_bits(double v) {
  std::ostringstream out;
  out << std::hex << std::bit_cast<std::uint64_t>(v);
  return out.str();
}

/// Writes one `case.key = value` line per visited field: doubles as
/// golden_bits, counts in decimal.
struct GoldenLines {
  std::ostringstream& out;
  const std::string& name;

  void line(std::string_view key, const std::string& value) const {
    out << name << '.' << key << " = " << value << '\n';
  }
  template <class T>
  void operator()(std::string_view key, const T& v) const {
    // The golden file predates the user id, tile and overload fields.
    if (key.ends_with(".user") || key.starts_with("tiles.") ||
        key.starts_with("overload."))
      return;
    if constexpr (std::is_floating_point_v<T>)
      line(key, golden_bits(v));
    else
      line(key, std::to_string(v));
  }
  std::size_t rows(std::string_view key,
                   const std::vector<sim::UserQoe>& users) const {
    line(key, std::to_string(users.size()));
    return users.size();
  }
};

/// SessionResult's field walk as golden text.
inline std::string serialize_result(const std::string& name,
                                    const SessionResult& r) {
  std::ostringstream out;
  for_each_field(GoldenLines{out, name}, r);
  return out.str();
}

}  // namespace volcast::core
