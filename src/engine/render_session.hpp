/**
 * @file
 * Per-scene / per-viewer state of the streaming frame engine.
 *
 * A RenderSession owns the renderer for one (field, config) pair and
 * the state that persists *between* that viewer's frames:
 *
 *  - the probe cache: the last fresh Phase I result (per-cell budgets,
 *    probe-pixel colors, marched point counts). When the camera moved
 *    less than the configured deltas, the next frame skips Phase I
 *    entirely and re-plans from the cache -- bit-identical to a fresh
 *    render when the camera is unchanged, an approximation across
 *    small deltas (the paper's Phase I difficulty varies smoothly with
 *    viewpoint, which is what makes the reuse sound).
 *  - per-session EncodeReuseStats, accumulating the batched encode's
 *    measured table reuse across the session's frames (only honored on
 *    a single-worker, serial engine -- the field's stats hook requires
 *    a single-threaded render).
 *  - SessionStats: frames served, Phase I runs, cache hits.
 *
 * Sessions are handed to FrameEngine::submit(); all mutation happens
 * under the session's own lock, so many sessions can stream through
 * one engine concurrently.
 */

#ifndef ASDR_ENGINE_RENDER_SESSION_HPP
#define ASDR_ENGINE_RENDER_SESSION_HPP

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "core/renderer.hpp"
#include "nerf/hash_grid.hpp"

namespace asdr::engine {

struct SessionConfig
{
    /**
     * Reuse the previous frame's Phase I probe profile when the camera
     * moved less than the deltas below. The defaults (0) only match a
     * bit-identical camera; widen them for camera-path streaming where
     * an approximate budget plan is acceptable.
     */
    bool reuse_probes = false;
    /** Max camera-position distance (scene units; the cube is 1^3). */
    float max_position_delta = 0.0f;
    /** Max view-direction change, measured as 1 - dot(fwd, cached). */
    float max_forward_delta = 0.0f;
    /** Accumulate EncodeReuseStats across this session's frames (only
     *  honored when the engine runs one worker and one frame in
     *  flight; silently ignored otherwise). */
    bool track_encode_reuse = false;
};

struct SessionStats
{
    uint64_t frames = 0;       ///< frames completed through the session
    uint64_t probe_frames = 0; ///< frames that ran a fresh Phase I
    uint64_t probe_reuses = 0; ///< frames planned from the probe cache
};

class RenderSession
{
  public:
    RenderSession(const nerf::RadianceField &field,
                  const core::RenderConfig &cfg,
                  const SessionConfig &session_cfg = {});

    const core::RenderConfig &config() const { return renderer_.config(); }
    const core::AsdrRenderer &renderer() const { return renderer_; }
    const SessionConfig &sessionConfig() const { return scfg_; }

    /**
     * A renderer over the same field with a degraded config (the
     * serving quality ladder's ReducedSamples transform). Built lazily
     * on first use and cached by samples_per_ray; cached renderers are
     * never evicted, so a reference stays valid for the lifetime of
     * the session even while other frames are in flight. Degraded
     * frames bypass the session probe cache (FrameRequest::
     * bypass_probe_cache), so the returned renderer shares nothing
     * with the full-fidelity path.
     */
    const core::AsdrRenderer &degradedRenderer(const core::RenderConfig &cfg);

    SessionStats stats() const;

    /** Session-lifetime encode-reuse accumulator (see SessionConfig).
     *  Read between frames; the engine writes through the field's hook
     *  while a tracked frame renders. */
    const nerf::EncodeReuseStats &encodeReuseStats() const
    {
        return encode_reuse_;
    }

    /** Drop the cached probe profile (e.g. after mutating the field). */
    void invalidateProbeCache();

    // ------------------------------------------------------------------
    // Engine-internal API (called by FrameEngine under its admission /
    // completion paths; user code never needs these).
    // ------------------------------------------------------------------

    /** Try to plan `fs` from the probe cache; fills fs.reused_* and
     *  sets fs.probes_reused on a hit. */
    bool tryReuseProbes(const core::FrameShape &shape,
                        core::FrameState &fs);

    /**
     * Capture a completed fresh Phase I into the cache. `frame_id` is
     * the engine's submission-ordered id: pipelined same-session
     * frames may finalize out of order, and only the newest probe
     * plan may win the cache. `epoch` is probeEpoch() at admission:
     * a frame launched before an invalidateProbeCache() call must not
     * repopulate the cache with its pre-invalidation plan.
     */
    void storeProbeCache(const core::FrameState &fs, uint64_t frame_id,
                         uint64_t epoch);

    /** Monotonic counter bumped by invalidateProbeCache(). */
    uint64_t probeEpoch() const;

    void onFrameDone(bool fresh_probes, bool reused_probes);

    /** Attach the session's EncodeReuseStats to the field's batched
     *  encode hook (InstantNGP only). Returns false when the field has
     *  no hook. */
    bool attachReuseHook();
    void detachReuseHook();

  private:
    const nerf::RadianceField &field_;
    core::AsdrRenderer renderer_;
    SessionConfig scfg_;
    /** Lazily-built degraded renderers, keyed by samples_per_ray;
     *  entries are immortal (in-flight frames hold bare references). */
    std::map<int, std::unique_ptr<core::AsdrRenderer>> degraded_;

    mutable std::mutex m_;
    SessionStats stats_;
    nerf::EncodeReuseStats encode_reuse_;

    // --- probe cache (guarded by m_) ---
    bool cache_valid_ = false;
    uint64_t cache_frame_id_ = 0; ///< id of the frame that filled it
    uint64_t epoch_ = 0;          ///< bumped by invalidateProbeCache
    Vec3 cache_pos_{0.0f};
    Vec3 cache_fwd_{0.0f};
    int cache_w_ = 0, cache_h_ = 0;
    int cache_gw_ = 0, cache_gh_ = 0;
    std::vector<int> cache_counts_;
    std::vector<Vec3> cache_colors_;
    std::vector<float> cache_actual_;
};

} // namespace asdr::engine

#endif // ASDR_ENGINE_RENDER_SESSION_HPP
