/**
 * @file
 * Shared scene catalog of the multi-tenant render server.
 *
 * A SceneEntry is one named (field, render config, camera framing)
 * triple loaded ONCE and shared read-only by every client session that
 * views it -- the fields' tables/weights are the server's dominant
 * memory, so N viewers of one scene must not mean N copies. Entries
 * are immutable after registration and held at stable addresses, so
 * client sessions and in-flight frames can keep raw pointers for the
 * server's lifetime.
 *
 * Registration happens at server bring-up (or between serving bursts);
 * lookups are concurrent-safe at all times.
 */

#ifndef ASDR_SERVER_SCENE_REGISTRY_HPP
#define ASDR_SERVER_SCENE_REGISTRY_HPP

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/render_config.hpp"
#include "nerf/field.hpp"
#include "nerf/ngp_field.hpp"
#include "scene/analytic_scene.hpp"

namespace asdr::server {

/** One registered scene; immutable once returned by the registry. */
struct SceneEntry
{
    std::string name;
    /** Dense per-registry id (registration order) -- the key the
     *  per-scene admission quotas count in-flight frames under. */
    uint32_t id = 0;
    /** The shared radiance field (owned_field when registry-owned). */
    const nerf::RadianceField *field = nullptr;
    /** Default render knobs for sessions of this scene. */
    core::RenderConfig config;
    /** Camera framing (position/look-at/fov) for path generation. */
    scene::SceneInfo info;

    std::unique_ptr<nerf::RadianceField> owned_field;
    std::unique_ptr<scene::AnalyticScene> owned_scene;
};

class SceneRegistry
{
  public:
    SceneRegistry() = default;
    SceneRegistry(const SceneRegistry &) = delete;
    SceneRegistry &operator=(const SceneRegistry &) = delete;

    /**
     * Register a field the registry takes ownership of. Returns the
     * entry, or null when the name is already taken (the caller's
     * field is freed in that case -- names are unique).
     */
    const SceneEntry *add(const std::string &name,
                          std::unique_ptr<nerf::RadianceField> field,
                          const core::RenderConfig &config,
                          const scene::SceneInfo &info);

    /**
     * Register a field owned elsewhere (tests, a trainer refreshing in
     * place). The field must outlive the registry and every server
     * using it.
     */
    const SceneEntry *addShared(const std::string &name,
                                const nerf::RadianceField &field,
                                const core::RenderConfig &config,
                                const scene::SceneInfo &info);

    /**
     * Build and register a ProceduralField over a named analytic
     * library scene (scene/scene_library) -- the quickest way to stand
     * up a serving catalog. Returns null when `name` is taken.
     */
    const SceneEntry *addProcedural(const std::string &name,
                                    const std::string &library_scene,
                                    const nerf::NgpModelConfig &model,
                                    const core::RenderConfig &config);

    /** Null when unknown. The entry stays valid for the registry's
     *  lifetime. */
    const SceneEntry *find(const std::string &name) const;

    std::vector<std::string> names() const;
    size_t size() const;

  private:
    const SceneEntry *insertLocked(std::unique_ptr<SceneEntry> entry);

    mutable std::mutex m_;
    std::vector<std::unique_ptr<SceneEntry>> entries_;
};

} // namespace asdr::server

#endif // ASDR_SERVER_SCENE_REGISTRY_HPP
