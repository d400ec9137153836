#include "core/occupancy_grid.hpp"

#include <algorithm>
#include <bitset>
#include <cmath>
#include <limits>

namespace asdr::core {

namespace {

constexpr int kRes = OccupancyGrid::kRes;
constexpr int kN = kRes + 1; ///< lattice points per axis
constexpr int kBatch = 256;  ///< points per densityBatch call
/** A coarse corner whose sigma reaches this share of the floor refines
 *  its cell: features just under the coarse lattice's reach show as
 *  near-floor sigma at the corners around them. */
constexpr float kNearShare = 0.5f;

/** Bit-packed flags over the kN^3 lattice. */
struct LatticeBits
{
    std::vector<uint64_t> words =
        std::vector<uint64_t>((size_t(kN) * kN * kN + 63) / 64);

    bool get(size_t i) const { return (words[i >> 6] >> (i & 63)) & 1u; }
    void set(size_t i) { words[i >> 6] |= uint64_t(1) << (i & 63); }
};

size_t
latticeIndex(int i, int j, int k)
{
    return (size_t(k) * kN + size_t(j)) * kN + size_t(i);
}

} // namespace

OccupancyGrid::OccupancyGrid() : rows_(size_t(kRes) * kRes, ~uint64_t(0)) {}

OccupancyGrid
OccupancyGrid::build(const nerf::RadianceField &field, float sigma_floor)
{
    OccupancyGrid grid;
    if (!(sigma_floor > 0.0f))
        return grid;

    // ---- sigma on the lattice: among the `known` (evaluated) points,
    // `kept` holds those whose sigma the floor keeps and `near` those
    // whose sigma reaches kNearShare of it ----
    LatticeBits known, kept, near;
    std::vector<Vec3> pos;
    std::vector<size_t> slot;
    std::vector<nerf::DensityOutput> den(kBatch);
    pos.reserve(kBatch);
    slot.reserve(kBatch);
    auto flush = [&] {
        if (pos.empty())
            return;
        field.densityBatch(pos.data(), int(pos.size()), den.data());
        for (size_t q = 0; q < pos.size(); ++q) {
            if (!(den[q].sigma < sigma_floor))
                kept.set(slot[q]);
            if (!(den[q].sigma < kNearShare * sigma_floor))
                near.set(slot[q]);
        }
        pos.clear();
        slot.clear();
    };
    auto sample = [&](int i, int j, int k) {
        const size_t s = latticeIndex(i, j, k);
        if (known.get(s))
            return;
        known.set(s);
        pos.push_back(Vec3(float(i), float(j), float(k)) *
                      (1.0f / float(kRes)));
        slot.push_back(s);
        if (pos.size() == size_t(kBatch))
            flush();
    };
    for (int k = 0; k < kN; k += 2)
        for (int j = 0; j < kN; j += 2)
            for (int i = 0; i < kN; i += 2)
                sample(i, j, k);
    flush();
    // Refine every coarse cell but two kinds. One whose corners are all
    // kept marks each of its fine cells through the one corner that fine
    // cell shares with it. One whose corners all lie below kNearShare of
    // the floor counts as empty inside: it marks a fine cell only through
    // a lattice point a refined neighbour evaluated. Unevaluated points
    // stay unset.
    for (int cz = 0; cz < kRes; cz += 2)
        for (int cy = 0; cy < kRes; cy += 2)
            for (int cx = 0; cx < kRes; cx += 2) {
                int n_kept = 0, n_near = 0;
                for (int c = 0; c < 8; ++c) {
                    const size_t corner = latticeIndex(
                        cx + 2 * (c & 1), cy + (c & 2), cz + ((c >> 1) & 2));
                    n_kept += kept.get(corner);
                    n_near += near.get(corner);
                }
                if (n_near == 0 || n_kept == 8)
                    continue;
                for (int k = cz; k <= cz + 2; ++k)
                    for (int j = cy; j <= cy + 2; ++j)
                        for (int i = cx; i <= cx + 2; ++i)
                            sample(i, j, k);
            }
    flush();

    // ---- a cell is marked when one of its 8 corners is kept: first
    // along x within each lattice row, then across the 4 rows ----
    std::vector<uint64_t> row_cells(size_t(kN) * kN);
    for (int k = 0; k < kN; ++k)
        for (int j = 0; j < kN; ++j) {
            const size_t base = latticeIndex(0, j, k);
            uint64_t lo = 0;
            for (int i = 0; i < kRes; ++i)
                lo |= uint64_t(kept.get(base + size_t(i))) << i;
            const uint64_t hi = kept.get(base + size_t(kRes));
            row_cells[size_t(k) * kN + size_t(j)] = lo | (lo >> 1) | (hi << 63);
        }
    std::vector<uint64_t> cells(size_t(kRes) * kRes);
    for (int z = 0; z < kRes; ++z)
        for (int y = 0; y < kRes; ++y) {
            const size_t r = size_t(z) * kN + size_t(y);
            cells[size_t(z) * kRes + size_t(y)] =
                row_cells[r] | row_cells[r + 1] | row_cells[r + kN] |
                row_cells[r + kN + 1];
        }

    // ---- dilate by one cell (the 26-neighbourhood) ----
    for (uint64_t &w : cells)
        w |= (w << 1) | (w >> 1);
    for (int z = 0; z < kRes; ++z)
        for (int y = 0; y < kRes; ++y) {
            uint64_t w = 0;
            for (int dz = -1; dz <= 1; ++dz)
                for (int dy = -1; dy <= 1; ++dy) {
                    const int zz = z + dz, yy = y + dy;
                    if (zz >= 0 && zz < kRes && yy >= 0 && yy < kRes)
                        w |= cells[size_t(zz) * kRes + size_t(yy)];
                }
            grid.rows_[size_t(z) * kRes + size_t(y)] = w;
        }
    grid.fitBox();
    return grid;
}

void
OccupancyGrid::fitBox()
{
    for (int a = 0; a < 3; ++a) {
        lo_[a] = kRes;
        hi_[a] = -1;
    }
    for (int z = 0; z < kRes; ++z)
        for (int y = 0; y < kRes; ++y) {
            const uint64_t w = rows_[size_t(z) * kRes + size_t(y)];
            if (w == 0)
                continue;
            const int lo[3] = {__builtin_ctzll(w), y, z};
            const int hi[3] = {63 - __builtin_clzll(w), y, z};
            for (int a = 0; a < 3; ++a) {
                lo_[a] = std::min(lo_[a], lo[a]);
                hi_[a] = std::max(hi_[a], hi[a]);
            }
        }
    whole_ = true;
    for (int a = 0; a < 3; ++a)
        whole_ = whole_ && lo_[a] == 0 && hi_[a] == kRes - 1;
}

OccupancyGrid::SampleRange
OccupancyGrid::sampleRange(const nerf::Ray &ray, float t0, float dt,
                           int n) const
{
    if (whole_)
        return {0, n};
    if (lo_[0] > hi_[0])
        return {};
    if (!(dt > 0.0f))
        return {0, n};

    // ---- estimate: the box's slab on each axis, in t. The box spans
    // [lo / kRes, (hi + 1) / kRes) on an axis; a face on the grid's
    // boundary bounds nothing, because points outside the grid take the
    // nearest cell. Each face moves out by a margin far above the
    // rounding error of a marched coordinate and of this estimate, so
    // the checks below pass, at the price of the samples that lie within
    // the margin outside the box ----
    constexpr float kInf = std::numeric_limits<float>::infinity();
    const float t_far = std::fabs(t0) + float(n) * dt;
    float enter = -kInf, leave = kInf;
    for (int a = 0; a < 3; ++a) {
        const float o = ray.origin[a], v = ray.dir[a];
        if (v == 0.0f) {
            // +-0 * t is +-0, so the coordinate is o at every sample.
            const int c = cellIndex(o);
            if (c < lo_[a] || c > hi_[a])
                return {};
            continue;
        }
        const float margin = 1e-5f * (1.0f + std::fabs(o) + t_far);
        const float low = lo_[a] > 0
                              ? float(lo_[a]) / float(kRes) - margin
                              : -kInf;
        const float high = hi_[a] < kRes - 1
                               ? float(hi_[a] + 1) / float(kRes) + margin
                               : kInf;
        const float inv = 1.0f / v;
        const float ta = (low - o) * inv, tb = (high - o) * inv;
        enter = std::max(enter, std::min(ta, tb));
        leave = std::min(leave, std::max(ta, tb));
    }
    // Sample d lies at t0 + (d + 0.5) * dt: the first one at or past t.
    const float inv_dt = 1.0f / dt;
    const auto first = [&](float t) {
        const float x = (t - t0) * inv_dt - 0.5f;
        if (!(x > 0.0f))
            return 0;
        if (!(x < float(n)))
            return n;
        const int d = int(x);
        return d + (float(d) < x ? 1 : 0);
    };
    SampleRange s;
    s.lo = first(enter);
    s.hi = std::max(s.lo, first(leave));

    // ---- confirm through the march's own positions: sample d has not
    // reached the box (`left` false) or has left it (`left` true) on
    // some axis, in the ray's direction of travel ----
    const auto outside = [&](int d, bool left) {
        const Vec3 p = marchPoint(ray, t0, dt, d);
        for (int a = 0; a < 3; ++a) {
            const float v = ray.dir[a];
            const int c = cellIndex(p[a]);
            if (v > 0.0f && (left ? c > hi_[a] : c < lo_[a]))
                return true;
            if (v < 0.0f && (left ? c < lo_[a] : c > hi_[a]))
                return true;
        }
        return false;
    };
    if (s.lo > 0 && !outside(s.lo - 1, false))
        s.lo = 0;
    if (s.hi < n && !outside(s.hi, true))
        s.hi = n;
    return s;
}

int
OccupancyGrid::markedCells() const
{
    int n = 0;
    for (uint64_t w : rows_)
        n += int(std::bitset<64>(w).count());
    return n;
}

} // namespace asdr::core
