/**
 * @file
 * Per-viewer renderers of the streaming frame engine.
 *
 * A RenderSession owns the renderer for one (field, config) pair plus
 * the degraded renderers the serving quality ladder asks for, so a
 * viewer's frames reuse one renderer instead of building one per
 * frame. Nothing carries over from one frame to the next: every frame
 * renders from scratch, bit-identical to AsdrRenderer::render().
 */

#ifndef ASDR_ENGINE_RENDER_SESSION_HPP
#define ASDR_ENGINE_RENDER_SESSION_HPP

#include <map>
#include <memory>
#include <mutex>

#include "core/renderer.hpp"

namespace asdr::engine {

class RenderSession
{
  public:
    RenderSession(const nerf::RadianceField &field,
                  const core::RenderConfig &cfg);

    const core::RenderConfig &config() const { return renderer_.config(); }
    const core::AsdrRenderer &renderer() const { return renderer_; }

    /**
     * A renderer over the same field with a degraded config (the
     * serving quality ladder's ReducedSamples transform). Built lazily
     * on first use and cached by samples_per_ray; cached renderers are
     * never evicted, so a reference stays valid for the lifetime of
     * the session even while other frames are in flight.
     */
    const core::AsdrRenderer &degradedRenderer(const core::RenderConfig &cfg);

  private:
    const nerf::RadianceField &field_;
    core::AsdrRenderer renderer_;
    /** Lazily-built degraded renderers, keyed by samples_per_ray;
     *  entries are immortal (in-flight frames hold bare references). */
    std::map<int, std::unique_ptr<core::AsdrRenderer>> degraded_;
    std::mutex m_; ///< guards degraded_
};

} // namespace asdr::engine

#endif // ASDR_ENGINE_RENDER_SESSION_HPP
