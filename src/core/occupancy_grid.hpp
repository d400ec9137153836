/**
 * @file
 * The occupancy grid: a 64^3 bit grid over the unit cube that marks the
 * cells where a field's density can reach RenderConfig::sigma_floor --
 * the software counterpart of Instant-NGP's occupancy grid. The
 * renderer evaluates density only at samples in marked cells; elsewhere
 * sigma is 0, as the floor would make it.
 */

#ifndef ASDR_CORE_OCCUPANCY_GRID_HPP
#define ASDR_CORE_OCCUPANCY_GRID_HPP

#include <cstdint>
#include <vector>

#include "nerf/field.hpp"
#include "util/vec.hpp"

namespace asdr::core {

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

  private:
    static int
    cellIndex(float c)
    {
        const float f = c * float(kRes);
        // NaN and negatives land in cell 0.
        return f >= float(kRes - 1) ? kRes - 1 : (f > 0.0f ? int(f) : 0);
    }

    std::vector<uint64_t> rows_; ///< bit x of rows_[z * kRes + y]
};

} // namespace asdr::core

#endif // ASDR_CORE_OCCUPANCY_GRID_HPP
