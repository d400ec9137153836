#include "core/analysis.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "nerf/ngp_field.hpp"
#include "nerf/volume_render.hpp"
#include "util/hashing.hpp"
#include "util/logging.hpp"

namespace asdr::core {

namespace {

/** Captures the per-level voxel (first vertex) and indices of a point. */
class PointCapture : public nerf::LookupSink
{
  public:
    struct LevelTouch
    {
        Vec3i voxel;
        uint32_t index;
    };

    std::vector<LevelTouch> touches; ///< one per level (first vertex)
    std::vector<uint32_t> all_indices;
    std::vector<uint16_t> all_levels;

    void
    onPointLookups(const nerf::VertexLookup *lookups, size_t count) override
    {
        touches.clear();
        all_indices.clear();
        all_levels.clear();
        uint16_t current_level = 0xFFFF;
        for (size_t i = 0; i < count; ++i) {
            if (lookups[i].level != current_level) {
                current_level = lookups[i].level;
                touches.push_back({lookups[i].vertex, lookups[i].index});
            }
            all_indices.push_back(lookups[i].index);
            all_levels.push_back(lookups[i].level);
        }
    }
};

uint64_t
voxelKey(const Vec3i &v)
{
    return (uint64_t(uint32_t(v.x)) << 42) ^
           (uint64_t(uint32_t(v.y)) << 21) ^ uint64_t(uint32_t(v.z));
}

} // namespace

std::vector<Vec3>
rayPositions(const nerf::Ray &ray, int n, bool &hit)
{
    std::vector<Vec3> out;
    float t0, t1;
    hit = nerf::intersectUnitCube(ray, t0, t1);
    if (!hit)
        return out;
    float dt = (t1 - t0) / float(n);
    out.reserve(size_t(n));
    for (int i = 0; i < n; ++i)
        out.push_back(ray.origin + ray.dir * (t0 + (float(i) + 0.5f) * dt));
    return out;
}

AddressTraceResult
sampleAddressTrace(const nerf::RadianceField &field,
                   const nerf::Camera &camera, int samples_per_ray,
                   int max_points)
{
    AddressTraceResult result;
    nerf::TableSchema schema = field.tableSchema();

    // Flat address space: tables stacked in id order.
    std::vector<uint64_t> table_base(schema.tables.size() + 1, 0);
    for (size_t t = 0; t < schema.tables.size(); ++t)
        table_base[t + 1] = table_base[t] + schema.tables[t].entries;
    result.address_space = table_base.back();

    PointCapture capture;
    std::vector<double> jumps;
    uint64_t prev_addr = 0;
    bool have_prev = false;

    int points_done = 0;
    for (int y = 0; y < camera.height() && points_done < max_points; ++y) {
        for (int x = 0; x < camera.width() && points_done < max_points; ++x) {
            nerf::Ray ray = camera.ray(float(x) + 0.5f, float(y) + 0.5f);
            bool hit = false;
            auto positions = rayPositions(ray, samples_per_ray, hit);
            for (const auto &pos : positions) {
                if (points_done >= max_points)
                    break;
                field.traceLookups(pos, capture);
                for (size_t i = 0; i < capture.all_indices.size(); ++i) {
                    uint64_t addr =
                        table_base[capture.all_levels[i]] +
                        capture.all_indices[i];
                    result.records.push_back({points_done, addr});
                    if (have_prev)
                        jumps.push_back(std::fabs(double(addr) -
                                                  double(prev_addr)));
                    prev_addr = addr;
                    have_prev = true;
                }
                ++points_done;
            }
        }
    }

    if (!jumps.empty()) {
        double sum = 0.0;
        for (double j : jumps)
            sum += j;
        result.mean_jump = sum / double(jumps.size());
        std::nth_element(jumps.begin(), jumps.begin() + jumps.size() / 2,
                         jumps.end());
        result.median_jump = jumps[jumps.size() / 2];
    }
    return result;
}

double
colorSimilarityDistribution(const nerf::RadianceField &field,
                            const nerf::Camera &camera, int samples_per_ray,
                            Histogram &hist, int max_rays)
{
    uint64_t close_pairs = 0;
    uint64_t total_pairs = 0;

    int rays_done = 0;
    // Subsample the frame uniformly so the profile covers the image.
    int stride = std::max(1, (camera.width() * camera.height()) / max_rays);
    int pixel = 0;
    for (int y = 0; y < camera.height() && rays_done < max_rays; ++y) {
        for (int x = 0; x < camera.width() && rays_done < max_rays; ++x) {
            if (pixel++ % stride != 0)
                continue;
            nerf::Ray ray = camera.ray(float(x) + 0.5f, float(y) + 0.5f);
            bool hit = false;
            auto positions = rayPositions(ray, samples_per_ray, hit);
            if (!hit)
                continue;
            ++rays_done;

            Vec3 prev_color;
            float prev_sigma = 0.0f;
            bool have_prev = false;
            for (const auto &pos : positions) {
                nerf::DensityOutput den = field.density(pos);
                Vec3 c = field.color(pos, ray.dir, den);
                if (have_prev) {
                    // Skip empty-empty pairs: their colors never reach
                    // the output image.
                    if (prev_sigma > 0.01f || den.sigma > 0.01f) {
                        float sim = cosineSimilarity(prev_color, c);
                        hist.add(sim);
                        ++total_pairs;
                        if (sim >= 0.99f)
                            ++close_pairs;
                    }
                }
                prev_color = c;
                prev_sigma = den.sigma;
                have_prev = true;
            }
        }
    }
    return total_pairs ? double(close_pairs) / double(total_pairs) : 1.0;
}

RepetitionProfile
profileRepetition(const nerf::RadianceField &field,
                  const nerf::Camera &camera, int samples_per_ray,
                  int max_ray_pairs)
{
    nerf::TableSchema schema = field.tableSchema();
    const int levels = int(schema.tables.size());

    RepetitionProfile out;
    out.inter_ray.assign(size_t(levels), 0.0);
    out.intra_ray_max_points.assign(size_t(levels), 0.0);

    PointCapture capture;
    int pairs_done = 0;
    std::vector<double> inter_acc(size_t(levels), 0.0);
    std::vector<double> intra_acc(size_t(levels), 0.0);
    int inter_samples = 0;
    int intra_samples = 0;

    int stride =
        std::max(1, (camera.width() * camera.height()) / max_ray_pairs);
    int pixel = 0;
    for (int y = 0; y < camera.height() && pairs_done < max_ray_pairs; ++y) {
        for (int x = 0; x + 1 < camera.width() && pairs_done < max_ray_pairs;
             ++x) {
            if (pixel++ % stride != 0)
                continue;

            // Collect per-level voxel sets of this ray and its neighbor.
            auto collect = [&](int px) {
                std::vector<std::vector<uint64_t>> per_level(
                    static_cast<size_t>(levels));
                nerf::Ray ray =
                    camera.ray(float(px) + 0.5f, float(y) + 0.5f);
                bool hit = false;
                auto positions = rayPositions(ray, samples_per_ray, hit);
                for (const auto &pos : positions) {
                    field.traceLookups(pos, capture);
                    for (size_t l = 0; l < capture.touches.size(); ++l)
                        per_level[l].push_back(
                            voxelKey(capture.touches[l].voxel));
                }
                return per_level;
            };
            auto a = collect(x);
            auto b = collect(x + 1);
            if (a[0].empty() || b[0].empty())
                continue;
            ++pairs_done;

            for (int l = 0; l < levels; ++l) {
                // Inter-ray: fraction of b's points whose voxel appears
                // in a's voxel set.
                std::set<uint64_t> set_a(a[size_t(l)].begin(),
                                         a[size_t(l)].end());
                int rep = 0;
                for (uint64_t k : b[size_t(l)])
                    if (set_a.count(k))
                        ++rep;
                if (!b[size_t(l)].empty()) {
                    inter_acc[size_t(l)] +=
                        double(rep) / double(b[size_t(l)].size());
                }

                // Intra-ray: most-populated voxel along ray a.
                std::map<uint64_t, int> counts;
                int best = 0;
                for (uint64_t k : a[size_t(l)])
                    best = std::max(best, ++counts[k]);
                intra_acc[size_t(l)] += double(best);
            }
            ++inter_samples;
            ++intra_samples;
        }
    }

    for (int l = 0; l < levels; ++l) {
        out.inter_ray[size_t(l)] =
            inter_samples ? inter_acc[size_t(l)] / inter_samples : 0.0;
        out.intra_ray_max_points[size_t(l)] =
            intra_samples ? intra_acc[size_t(l)] / intra_samples : 0.0;
    }
    return out;
}

std::vector<std::pair<int, int>>
frameRayOrder(int width, int height, bool morton, int tile)
{
    std::vector<std::pair<int, int>> order;
    order.reserve(size_t(width) * size_t(height));
    if (morton) {
        for (int ty = 0; ty < (height + tile - 1) / tile; ++ty)
            for (int tx = 0; tx < (width + tile - 1) / tile; ++tx) {
                // Clipped edge-tile dims, exactly as phase2Job sees them.
                const int tw = std::min(tile, width - tx * tile);
                const int th = std::min(tile, height - ty * tile);
                forEachMorton2D(tw, th, [&](int ux, int uy) {
                    order.push_back({tx * tile + ux, ty * tile + uy});
                });
            }
    } else {
        for (int y = 0; y < height; ++y)
            for (int x = 0; x < width; ++x)
                order.push_back({x, y});
    }
    return order;
}

EncodeReuseReport
measureEncodeReuse(const nerf::InstantNgpField &field,
                   const nerf::Camera &camera, int samples_per_ray,
                   int max_rays, bool morton_order, int batch, int tile)
{
    std::vector<std::pair<int, int>> order = frameRayOrder(
        camera.width(), camera.height(), morton_order, tile);

    const nerf::HashGrid &grid = field.grid();
    const int fd = grid.featureDim();
    nerf::EncodeReuseStats stats;
    stats.reset(grid.geometry().levels());
    std::vector<Vec3> pending;
    std::vector<float> feat;
    auto flush = [&]() {
        if (pending.empty())
            return;
        feat.resize(pending.size() * size_t(fd));
        grid.encodeBatch(pending.data(), int(pending.size()), feat.data(),
                         fd, &stats);
        pending.clear();
    };

    int rays_done = 0;
    for (const auto &[x, y] : order) {
        if (rays_done >= max_rays)
            break;
        nerf::Ray ray = camera.ray(float(x) + 0.5f, float(y) + 0.5f);
        bool hit = false;
        auto positions = rayPositions(ray, samples_per_ray, hit);
        if (!hit)
            continue;
        ++rays_done;
        for (const auto &pos : positions) {
            pending.push_back(pos);
            if (int(pending.size()) >= batch)
                flush();
        }
    }
    flush();

    EncodeReuseReport report;
    const int levels = int(stats.lookups.size());
    for (int l = 0; l < levels; ++l) {
        report.reuse_factor.push_back(stats.reuseFactor(l));
        report.coherent_fraction.push_back(stats.coherentFraction(l));
        report.total_lookups += stats.lookups[size_t(l)];
        report.total_unique += stats.unique[size_t(l)];
    }
    return report;
}

} // namespace asdr::core
