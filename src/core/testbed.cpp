#include "core/testbed.h"

namespace volcast::core {

namespace {
geo::Pose ap_pose(const TestbedConfig& config) {
  // Boresight from the AP toward a point above the content: covers the
  // audience arc with the codebook's downward-tilted sectors.
  return geo::Pose::look_at(config.ap_position,
                            config.content_floor + geo::Vec3{0.0, 0.0, 1.2});
}
}  // namespace

Testbed::Testbed(TestbedConfig config)
    : config_(config),
      channel_(config.room),
      ap_(config.array, ap_pose(config), channel_.carrier_hz()),
      codebook_(ap_, config.codebook) {}

mmwave::LinkTable Testbed::link_table(
    std::span<const geo::Vec3> positions,
    std::span<const geo::BodyObstacle> bodies, obs::Counter* evals) const {
  return {ap_,       &codebook_, channel_, config_.blockage,
          config_.budget, positions, bodies, evals};
}

mmwave::LinkTable Testbed::path_table(
    std::span<const geo::Vec3> positions) const {
  return {ap_, nullptr, channel_, config_.blockage, config_.budget, positions,
          {}};
}

geo::Pose Testbed::to_room(const geo::Pose& content_local) const {
  geo::Pose out = content_local;
  out.position = to_room(content_local.position);
  return out;
}

geo::Vec3 Testbed::to_room(const geo::Vec3& content_local) const {
  return content_local + config_.content_floor;
}

}  // namespace volcast::core
