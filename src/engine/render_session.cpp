#include "engine/render_session.hpp"

namespace asdr::engine {

RenderSession::RenderSession(const nerf::RadianceField &field,
                             const core::RenderConfig &cfg)
    : field_(field), renderer_(field, cfg)
{
}

const core::AsdrRenderer &
RenderSession::degradedRenderer(const core::RenderConfig &cfg)
{
    std::lock_guard<std::mutex> lock(m_);
    auto it = degraded_.find(cfg.samples_per_ray);
    if (it == degraded_.end())
        it = degraded_
                 .emplace(cfg.samples_per_ray,
                          std::make_unique<core::AsdrRenderer>(field_, cfg))
                 .first;
    return *it->second;
}

} // namespace asdr::engine
