#include "engine/render_session.hpp"

#include <algorithm>
#include <cmath>

#include "nerf/ngp_field.hpp"

namespace asdr::engine {

RenderSession::RenderSession(const nerf::RadianceField &field,
                             const core::RenderConfig &cfg,
                             const SessionConfig &session_cfg)
    : field_(field), renderer_(field, cfg), scfg_(session_cfg)
{
    encode_reuse_.reset(0);
}

SessionStats
RenderSession::stats() const
{
    std::lock_guard<std::mutex> lock(m_);
    return stats_;
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

void
RenderSession::invalidateProbeCache()
{
    std::lock_guard<std::mutex> lock(m_);
    cache_valid_ = false;
    // In-flight frames admitted before this call carry the old epoch;
    // their completion must not repopulate the cache (the field they
    // rendered from may have changed).
    ++epoch_;
}

uint64_t
RenderSession::probeEpoch() const
{
    std::lock_guard<std::mutex> lock(m_);
    return epoch_;
}

bool
RenderSession::tryReuseProbes(const core::FrameShape &shape,
                              core::FrameState &fs)
{
    if (!scfg_.reuse_probes || !shape.adaptive)
        return false;
    std::lock_guard<std::mutex> lock(m_);
    if (!cache_valid_)
        return false;
    const nerf::Camera &cam = fs.camera;
    if (cam.width() != cache_w_ || cam.height() != cache_h_ ||
        shape.gw != cache_gw_ || shape.gh != cache_gh_)
        return false;
    // A bit-identical camera always hits (self-dot of a normalized
    // float vector rounds below 1, so the delta test alone would miss
    // it at max_forward_delta = 0 -- and the zero-delta contract is
    // exactly "identical cameras only").
    const bool same_camera = cam.position().x == cache_pos_.x &&
                             cam.position().y == cache_pos_.y &&
                             cam.position().z == cache_pos_.z &&
                             cam.forward().x == cache_fwd_.x &&
                             cam.forward().y == cache_fwd_.y &&
                             cam.forward().z == cache_fwd_.z;
    if (!same_camera) {
        const Vec3 dp = cam.position() - cache_pos_;
        const float pos_delta =
            std::sqrt(dp.x * dp.x + dp.y * dp.y + dp.z * dp.z);
        const float fwd_delta = 1.0f - dot(cam.forward(), cache_fwd_);
        if (pos_delta > scfg_.max_position_delta ||
            fwd_delta > scfg_.max_forward_delta)
            return false;
    }
    fs.probes_reused = true;
    fs.reused_counts = cache_counts_;
    fs.reused_colors = cache_colors_;
    fs.reused_actual = cache_actual_;
    return true;
}

void
RenderSession::storeProbeCache(const core::FrameState &fs,
                               uint64_t frame_id, uint64_t epoch)
{
    const nerf::Camera &cam = fs.camera;
    const int w = cam.width();
    const int h = cam.height();
    const int gw = fs.shape.gw;
    const int gh = fs.shape.gh;
    const int d = renderer_.config().probe_stride;

    std::vector<Vec3> colors(size_t(gw) * size_t(gh));
    std::vector<float> actual(size_t(gw) * size_t(gh));
    for (int gy = 0; gy < gh; ++gy)
        for (int gx = 0; gx < gw; ++gx) {
            int px, py;
            core::AdaptiveSampler::probePixel(gx, gy, d, w, h, px, py);
            colors[size_t(gy) * gw + gx] = fs.img.at(px, py);
            actual[size_t(gy) * gw + gx] =
                fs.actual_map[size_t(py) * w + px];
        }

    std::lock_guard<std::mutex> lock(m_);
    // Pipelined same-session frames can finalize out of order (an
    // older frame must not clobber a newer frame's plan), and a frame
    // admitted before an invalidation carries a stale plan.
    if (epoch != epoch_ || (cache_valid_ && frame_id <= cache_frame_id_))
        return;
    cache_frame_id_ = frame_id;
    cache_valid_ = true;
    cache_pos_ = cam.position();
    cache_fwd_ = cam.forward();
    cache_w_ = w;
    cache_h_ = h;
    cache_gw_ = gw;
    cache_gh_ = gh;
    cache_counts_ = fs.probe_counts;
    cache_colors_ = std::move(colors);
    cache_actual_ = std::move(actual);
}

void
RenderSession::onFrameDone(bool fresh_probes, bool reused_probes)
{
    std::lock_guard<std::mutex> lock(m_);
    stats_.frames++;
    if (fresh_probes)
        stats_.probe_frames++;
    if (reused_probes)
        stats_.probe_reuses++;
}

bool
RenderSession::attachReuseHook()
{
    const auto *ngp = dynamic_cast<const nerf::InstantNgpField *>(&field_);
    if (!ngp)
        return false;
    if (encode_reuse_.lookups.empty())
        encode_reuse_.reset(ngp->gridGeometry().levels());
    // Sessions sharing one field race for the single hook pointer; a
    // losing session simply goes untracked this frame.
    return ngp->tryAttachEncodeReuseStats(&encode_reuse_);
}

void
RenderSession::detachReuseHook()
{
    if (const auto *ngp =
            dynamic_cast<const nerf::InstantNgpField *>(&field_))
        ngp->detachEncodeReuseStats(&encode_reuse_);
}

} // namespace asdr::engine
