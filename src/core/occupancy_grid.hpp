/**
 * @file
 * The occupancy grid: a 64^3 bit grid over the unit cube that marks the
 * cells where a field's density can reach RenderConfig::sigma_floor --
 * the software counterpart of Instant-NGP's occupancy grid. The
 * renderer evaluates density only at samples in marked cells; elsewhere
 * sigma is 0, as the floor would make it. The bounding box of the marked
 * cells, six ints fitted once per grid, clips each ray of the batched
 * march to the one interval of samples that can lie in a marked cell
 * (sampleRange).
 */

#ifndef ASDR_CORE_OCCUPANCY_GRID_HPP
#define ASDR_CORE_OCCUPANCY_GRID_HPP

#include <cstdint>
#include <vector>

#include "nerf/camera.hpp"
#include "nerf/field.hpp"
#include "util/vec.hpp"

namespace asdr::core {

/**
 * Sample `d` of a ray marched from `t0` in steps of `dt`: the one
 * position expression both host paths march and sampleRange checks.
 * Every build passes -ffp-contract=off, so each coordinate is a chain of
 * correctly rounded operations, each monotone in its input: the
 * coordinate moves monotonically in `d`, up where the direction's
 * component is positive and down where it is negative.
 */
inline Vec3
marchPoint(const nerf::Ray &ray, float t0, float dt, int d)
{
    return ray.origin + ray.dir * (t0 + (float(d) + 0.5f) * dt);
}

class OccupancyGrid
{
  public:
    /** Cells per axis; one x-row of cells is one 64-bit word (32 KB). */
    static constexpr int kRes = 64;

    /** A grid with every cell marked: it skips nothing. */
    OccupancyGrid();

    /**
     * The cells where `field`'s sigma may reach `sigma_floor`, from
     * densityBatch alone. Sigma is sampled on the (kRes + 1)^3 lattice
     * of cell corners; a cell is marked when a corner's sigma is not
     * below the floor, and the marks are dilated by one cell. The even
     * lattice points (a 33^3 lattice) are evaluated first, and the
     * others only inside the coarse cells they span, except where all
     * eight corners reach the floor (every fine cell is marked anyway)
     * or all lie below half of it (taken as empty inside). A floor <= 0
     * keeps every sigma, so it marks every cell without evaluating
     * anything. Deterministic, single-threaded, and at most 256 points
     * per densityBatch call.
     */
    static OccupancyGrid build(const nerf::RadianceField &field,
                               float sigma_floor);

    /** Whether the cell holding `p` is marked; points outside the cube
     *  take the nearest cell. */
    bool
    occupied(const Vec3 &p) const
    {
        const size_t row =
            size_t(cellIndex(p.z)) * kRes + size_t(cellIndex(p.y));
        return (rows_[row] >> cellIndex(p.x)) & 1u;
    }

    /** Marked cells, out of kRes^3. */
    int markedCells() const;

    /** The cell index of coordinate `c` on any axis: monotone in `c`;
     *  NaN and negatives land in cell 0, and 1 and above in kRes - 1. */
    static int
    cellIndex(float c)
    {
        const float f = c * float(kRes);
        return f >= float(kRes - 1) ? kRes - 1 : (f > 0.0f ? int(f) : 0);
    }

    /** Samples [lo, hi) of a marched ray; lo == hi when empty. */
    struct SampleRange
    {
        int lo = 0;
        int hi = 0;
    };

    /**
     * The samples of a ray marched as marchPoint(ray, t0, dt, d), d in
     * [0, n), that can lie in a marked cell: every sample outside
     * [lo, hi) lies outside the marked cells' bounding box. A sample's
     * cell index is monotone in d on each axis, so the samples that have
     * not reached the box on some axis, in the ray's direction of
     * travel, form a prefix, those that have left it on some axis a
     * suffix, and the samples in the box one interval. A slab test,
     * widened by more than the march's rounding error, estimates it. One
     * exact check at each end through marchPoint confirms that sample
     * lo - 1 has not reached the box and sample hi has left it; a side
     * whose check fails keeps the ray's end. The whole range costs one
     * flag test when the box is the whole grid; the range is empty when
     * no cell is marked.
     */
    SampleRange sampleRange(const nerf::Ray &ray, float t0, float dt,
                            int n) const;

  private:
    /** Fit the bounding box and whole_ to rows_. */
    void fitBox();

    std::vector<uint64_t> rows_; ///< bit x of rows_[z * kRes + y]
    /** The marked cells' bounding box, inclusive cell indices per axis;
     *  lo_ > hi_ when no cell is marked. */
    int lo_[3] = {0, 0, 0};
    int hi_[3] = {kRes - 1, kRes - 1, kRes - 1};
    bool whole_ = true; ///< the box is the whole grid: nothing to clip
};

} // namespace asdr::core

#endif // ASDR_CORE_OCCUPANCY_GRID_HPP
