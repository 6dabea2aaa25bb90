// Reproduces Fig. 3b: "The default beams cannot support an efficient
// multicast for multiple users" — CDF of the best common RSS achievable
// with the stock sector codebook for multicast groups of 1, 2 and 3 users,
// with user positions drawn from the viewport traces (Section 3).
//
// Paper anchors: -68 dBm (the ~384 Mbps MCS-1 threshold for 550K quality)
// is reachable at ~96.5% of positions for one user, ~79% for two, ~60% for
// three.
#include <cstdio>
#include <vector>

#include "common/stats.h"
#include "core/testbed.h"
#include "mmwave/link.h"
#include "trace/user_study.h"

using namespace volcast;

int main() {
  std::printf("=== Fig. 3b: max common RSS under the default codebook ===\n");
  core::Testbed testbed;
  trace::UserStudyConfig study_config;
  study_config.content_center =
      testbed.config().content_floor + geo::Vec3{0, 0, 1.1};
  const trace::UserStudy study(study_config);

  Rng rng(2021);
  auto random_position = [&](std::size_t sample) {
    const std::size_t user = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(study.user_count()) - 1));
    const auto& poses = study.trace(user).poses;
    (void)sample;
    return poses[static_cast<std::size_t>(rng.uniform_int(
                     0, static_cast<std::int64_t>(poses.size()) - 1))]
        .position;
  };

  EmpiricalDistribution rss_1, rss_2, rss_3;
  mmwave::ShadowingProcess shadowing(testbed.config().shadowing_sigma_db,
                                     testbed.config().shadowing_coherence_s,
                                     7);
  constexpr int kTrials = 4000;
  for (int trial = 0; trial < kTrials; ++trial) {
    const geo::Vec3 u1 = random_position(0);
    const geo::Vec3 u2 = random_position(1);
    const geo::Vec3 u3 = random_position(2);
    const double s1 = shadowing.step(0.05);
    const double s2 = shadowing.step(0.05);
    const double s3 = shadowing.step(0.05);

    rss_1.add(mmwave::best_beam_rss_dbm(testbed.ap(), testbed.codebook(),
                                        testbed.channel(), u1, {},
                                        testbed.budget()) +
              s1);
    const geo::Vec3 group[] = {u1, u2, u3};
    const mmwave::LinkTable links = testbed.link_table(group);
    const mmwave::Codebook& codebook = testbed.codebook();
    {
      const std::size_t pair[] = {0, 1};
      const auto beam = codebook.beam(codebook.best_common_beam(links, pair));
      rss_2.add(std::min(links.rss_dbm(beam, 0, {}) + s1,
                         links.rss_dbm(beam, 1, {}) + s2));
    }
    {
      const std::size_t trio[] = {0, 1, 2};
      const auto beam = codebook.beam(codebook.best_common_beam(links, trio));
      rss_3.add(std::min({links.rss_dbm(beam, 0, {}) + s1,
                          links.rss_dbm(beam, 1, {}) + s2,
                          links.rss_dbm(beam, 2, {}) + s3}));
    }
  }

  auto report = [](const char* label, const EmpiricalDistribution& d,
                   double paper_coverage) {
    std::printf("%s: p5=%.1f median=%.1f p95=%.1f dBm | >= -68 dBm: %.1f%% "
                "(paper: %.1f%%)\n",
                label, d.percentile(5), d.median(), d.percentile(95),
                100.0 * (1.0 - d.cdf(-68.0)), paper_coverage);
  };
  report("1 user ", rss_1, 96.5);
  report("2 users", rss_2, 79.0);
  report("3 users", rss_3, 60.0);

  std::printf("\nCDF series (x = RSS dBm, y = CDF):\n");
  std::printf("-- 1 user --\n%s", rss_1.format_cdf(10).c_str());
  std::printf("-- 2 users --\n%s", rss_2.format_cdf(10).c_str());
  std::printf("-- 3 users --\n%s", rss_3.format_cdf(10).c_str());
  return 0;
}
