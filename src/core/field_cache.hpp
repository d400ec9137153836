/**
 * @file
 * Get-or-train access to fitted fields. Fitting a scene takes seconds;
 * the cache keeps fields in-process (shared_ptr) and on disk
 * (nerf/serialize), so the 20+ benchmark binaries share one training
 * run per scene.
 */

#ifndef ASDR_CORE_FIELD_CACHE_HPP
#define ASDR_CORE_FIELD_CACHE_HPP

#include <memory>
#include <string>

#include "core/presets.hpp"
#include "nerf/ngp_field.hpp"
#include "nerf/tensorf.hpp"
#include "scene/analytic_scene.hpp"

namespace asdr::core {

/**
 * A fitted Instant-NGP field for `scene_name` under `preset`: loaded
 * from the disk cache when present, trained (and cached) otherwise.
 */
std::shared_ptr<nerf::InstantNgpField>
fittedField(const std::string &scene_name, const ExperimentPreset &preset);

/** Fitted TensoRF field (in-process cache only). */
std::shared_ptr<nerf::TensorfField>
fittedTensorf(const std::string &scene_name, const ExperimentPreset &preset);

} // namespace asdr::core

#endif // ASDR_CORE_FIELD_CACHE_HPP
